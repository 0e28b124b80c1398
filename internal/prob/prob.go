// Package prob provides seeded randomness with per-node derived streams and
// the probability utilities (binomial tails, Chernoff bounds) used by the
// splitting algorithms and their derandomizations.
//
// All randomized algorithms in this repository draw from a Source created
// from an explicit seed, so every run is reproducible. Per-node streams are
// derived with a SplitMix64 hash of (seed, node id), which keeps the
// worker-pool engine and the sequential engine bit-for-bit identical: a
// node's random bits depend only on the seed and its identity, never on
// scheduling.
package prob

import (
	"math"
	"math/rand/v2"
)

// Source is a reproducible source of randomness that can derive independent
// per-node streams.
type Source struct {
	seed uint64
}

// NewSource returns a Source for the given seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Rand returns the root random stream of the source.
func (s *Source) Rand() *rand.Rand {
	return rand.New(rand.NewPCG(s.seed, splitmix64(s.seed)))
}

// Node returns an independent random stream for the given node id. Streams
// for distinct ids are computationally independent, and the same (seed, id)
// pair always yields the same stream.
func (s *Source) Node(id int) *rand.Rand {
	h := s.nodeSeed(id)
	return rand.New(rand.NewPCG(h, splitmix64(h)))
}

// NodeFloat64 returns Node(id).Float64(), the first float draw of the
// node's stream, without allocating the stream: callers that draw once per
// node (centralized simulations of a one-round coin) stay allocation-free.
func (s *Source) NodeFloat64(id int) float64 {
	h := s.nodeSeed(id)
	pcg := rand.NewPCG(h, splitmix64(h))
	// rand.Rand.Float64's mapping: the top 53 bits, scaled into [0, 1).
	return float64(pcg.Uint64()<<11>>11) / (1 << 53)
}

// NodeStreams returns the streams Node would yield for every id, backed by
// two bulk allocations instead of two per node. At sweep scale
// (trials × nodes) per-stream allocation is GC-visible; the engines build
// their Views through this.
func (s *Source) NodeStreams(ids []int) []*rand.Rand {
	pcgs := make([]rand.PCG, len(ids))
	rands := make([]rand.Rand, len(ids))
	out := make([]*rand.Rand, len(ids))
	for i, id := range ids {
		h := s.nodeSeed(id)
		pcgs[i].Seed(h, splitmix64(h))
		rands[i] = *rand.New(&pcgs[i])
		out[i] = &rands[i]
	}
	return out
}

// nodeSeed derives the PCG seed of a node's stream from (source seed, id).
func (s *Source) nodeSeed(id int) uint64 {
	return splitmix64(s.seed ^ splitmix64(uint64(id)+0x9e3779b97f4a7c15))
}

// Fork returns a derived Source for a named phase, so that independent
// algorithm phases use independent randomness even when they run on the
// same node ids.
func (s *Source) Fork(phase uint64) *Source {
	return &Source{seed: splitmix64(s.seed ^ splitmix64(phase+0x2545f4914f6cdd1d))}
}

// KeyedStream derives an independent 64-bit stream key from a seed and a
// stream kind — the counter-based analogue of Fork for consumers that need
// raw keyed bits instead of a *rand.Rand. The fault-injection layer keys its
// drop/delay/crash streams with it so decisions depend only on
// (seed, kind, index) and never on draw order.
func KeyedStream(seed, kind uint64) uint64 {
	return splitmix64(seed ^ splitmix64(kind+0x2545f4914f6cdd1d))
}

// KeyedAt returns 64 uniform bits at position i of a keyed stream. Chain it
// to key on tuples: KeyedAt(KeyedAt(stream, round), arc).
func KeyedAt(stream, i uint64) uint64 {
	return splitmix64(stream ^ splitmix64(i+0x9e3779b97f4a7c15))
}

// splitmix64 is the SplitMix64 finalizer; it is a strong 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BinomPMF returns the probability mass function values of Bin(n, p) as a
// slice of length n+1, computed with a numerically stable iterative scheme.
func BinomPMF(n int, p float64) []float64 {
	if n < 0 {
		return nil
	}
	pmf := make([]float64, n+1)
	if p <= 0 {
		pmf[0] = 1
		return pmf
	}
	if p >= 1 {
		pmf[n] = 1
		return pmf
	}
	// Work in log space to avoid underflow for large n.
	logP, logQ := math.Log(p), math.Log1p(-p)
	lg := logGammaCache(n)
	for k := 0; k <= n; k++ {
		logC := lg[n] - lg[k] - lg[n-k]
		pmf[k] = math.Exp(logC + float64(k)*logP + float64(n-k)*logQ)
	}
	return pmf
}

// BinomTailGE returns Pr[Bin(n,p) >= k] exactly (up to float rounding).
func BinomTailGE(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	pmf := BinomPMF(n, p)
	var sum float64
	for i := n; i >= k; i-- { // sum smallest terms first for stability
		sum += pmf[i]
	}
	return math.Min(1, sum)
}

// BinomTailLE returns Pr[Bin(n,p) <= k] exactly (up to float rounding).
func BinomTailLE(n int, p float64, k int) float64 {
	if k >= n {
		return 1
	}
	if k < 0 {
		return 0
	}
	pmf := BinomPMF(n, p)
	var sum float64
	for i := 0; i <= k; i++ {
		sum += pmf[i]
	}
	return math.Min(1, sum)
}

// logGammaCache returns lg[i] = ln(i!) for i in [0, n].
func logGammaCache(n int) []float64 {
	lg := make([]float64, n+1)
	for i := 2; i <= n; i++ {
		lg[i] = lg[i-1] + math.Log(float64(i))
	}
	return lg
}

// ChernoffUpper bounds Pr[X >= (1+d)*mu] for X a sum of independent 0/1
// variables with mean mu, using the standard multiplicative Chernoff bound
// exp(-d^2 mu / (2+d)).
func ChernoffUpper(mu, d float64) float64 {
	if d <= 0 {
		return 1
	}
	return math.Exp(-d * d * mu / (2 + d))
}

// ChernoffLower bounds Pr[X <= (1-d)*mu] with exp(-d^2 mu / 2).
func ChernoffLower(mu, d float64) float64 {
	if d <= 0 {
		return 1
	}
	if d >= 1 {
		d = 1
	}
	return math.Exp(-d * d * mu / 2)
}

// HoeffdingMGF returns E[exp(t*Bin(m, half))] for p = 1/2, i.e.
// ((1+e^t)/2)^m. It is the building block of the pessimistic estimators
// used to derandomize the uniform splitting algorithm.
func HoeffdingMGF(m int, t float64) float64 {
	return math.Pow((1+math.Exp(t))/2, float64(m))
}

// Log2 returns log base 2 of x; the paper writes log x for log2 x.
func Log2(x float64) float64 { return math.Log2(x) }

// CeilLog2 returns ceil(log2(n)) for n >= 1, and 0 for n <= 1.
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	k := 0
	for v := n - 1; v > 0; v >>= 1 {
		k++
	}
	return k
}

// FloorLog2 returns floor(log2(n)) for n >= 1, and 0 for n < 1.
func FloorLog2(n int) int {
	if n < 1 {
		return 0
	}
	k := -1
	for v := n; v > 0; v >>= 1 {
		k++
	}
	return k
}

// SmallestPrimeAtLeast returns the smallest prime >= n (n >= 2); it is used
// by Linial's coloring construction over GF(q).
func SmallestPrimeAtLeast(n int) int {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for ; ; n += 2 {
		if isPrime(n) {
			return n
		}
	}
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}
