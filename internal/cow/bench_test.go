package cow

import "testing"

// shuffleLen is the length of the largest Hybrid2 remap table the
// benchmark's screened search builds (an H2DSE point at scale 16).
const shuffleLen = 1_111_754

var drawSink uint64

// BenchmarkShuffle splits a placement shuffle into its two costs: draws
// generates only Shuffle's xorshift64* draws and their 64-bit remainders,
// full is the whole shuffle, whose remainder over draws is the random
// swaps' memory traffic.
func BenchmarkShuffle(b *testing.B) {
	b.Run("draws", func(b *testing.B) {
		for b.Loop() {
			rng, sum := uint64(1), uint64(0)
			for i := shuffleLen - 1; i > 0; i-- {
				rng ^= rng >> 12
				rng ^= rng << 25
				rng ^= rng >> 27
				sum += (rng * 0x2545F4914F6CDD1D) % uint64(i+1)
			}
			drawSink = sum
		}
	})
	b.Run("full", func(b *testing.B) {
		s := make([]uint32, shuffleLen)
		for b.Loop() {
			for i := range s {
				s[i] = uint32(i)
			}
			Shuffle(s, 1)
		}
	})
}
