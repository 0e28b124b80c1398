package prob

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42).Node(7)
	b := NewSource(42).Node(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams for same (seed,id) diverged at step %d", i)
		}
	}
}

func TestSourceIndependence(t *testing.T) {
	a := NewSource(42).Node(1)
	b := NewSource(42).Node(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for distinct ids collided %d times", same)
	}
}

func TestNodeStreamsMatchNode(t *testing.T) {
	ids := []int{0, 1, 7, 5, 1 << 20, -3}
	s := NewSource(42)
	bulk := s.NodeStreams(ids)
	if len(bulk) != len(ids) {
		t.Fatalf("got %d streams for %d ids", len(bulk), len(ids))
	}
	for i, id := range ids {
		one := s.Node(id)
		for step := 0; step < 100; step++ {
			if got, want := bulk[i].Uint64(), one.Uint64(); got != want {
				t.Fatalf("id %d: bulk stream diverged from Node at step %d: %x vs %x", id, step, got, want)
			}
		}
	}
	if got := s.NodeStreams(nil); len(got) != 0 {
		t.Errorf("empty id list should yield no streams")
	}
}

func TestNodeFloat64MatchesNode(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		s := NewSource(seed)
		for id := -3; id < 2000; id++ {
			if got, want := s.NodeFloat64(id), s.Node(id).Float64(); got != want {
				t.Fatalf("seed %d id %d: NodeFloat64 %v, Node.Float64 %v", seed, id, got, want)
			}
		}
	}
	s := NewSource(7)
	if allocs := testing.AllocsPerRun(100, func() { s.NodeFloat64(12345) }); allocs != 0 {
		t.Errorf("NodeFloat64 allocates %v times, want 0", allocs)
	}
}

func TestForkChangesStream(t *testing.T) {
	s := NewSource(1)
	if s.Fork(1).Node(0).Uint64() == s.Fork(2).Node(0).Uint64() {
		t.Fatal("forked sources should differ")
	}
	if s.Fork(3).Seed() == s.Seed() {
		t.Fatal("fork should change the seed")
	}
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{0, 0.5}, {1, 0.3}, {10, 0.5}, {100, 0.25}, {1000, 0.01}, {500, 0.99}} {
		pmf := BinomPMF(tc.n, tc.p)
		var sum float64
		for _, v := range pmf {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("BinomPMF(%d,%v) sums to %v", tc.n, tc.p, sum)
		}
	}
}

func TestBinomPMFDegenerate(t *testing.T) {
	pmf := BinomPMF(5, 0)
	if pmf[0] != 1 {
		t.Errorf("p=0 should put all mass at 0, got %v", pmf)
	}
	pmf = BinomPMF(5, 1)
	if pmf[5] != 1 {
		t.Errorf("p=1 should put all mass at n, got %v", pmf)
	}
	if BinomPMF(-1, 0.5) != nil {
		t.Error("negative n should yield nil")
	}
}

func TestBinomTails(t *testing.T) {
	// Bin(4, 1/2): Pr[X >= 2] = 11/16, Pr[X <= 1] = 5/16.
	if got := BinomTailGE(4, 0.5, 2); math.Abs(got-11.0/16) > 1e-12 {
		t.Errorf("BinomTailGE(4,.5,2) = %v, want 11/16", got)
	}
	if got := BinomTailLE(4, 0.5, 1); math.Abs(got-5.0/16) > 1e-12 {
		t.Errorf("BinomTailLE(4,.5,1) = %v, want 5/16", got)
	}
	if BinomTailGE(10, 0.5, 0) != 1 || BinomTailGE(10, 0.5, 11) != 0 {
		t.Error("tail boundary cases wrong")
	}
	if BinomTailLE(10, 0.5, 10) != 1 || BinomTailLE(10, 0.5, -1) != 0 {
		t.Error("tail boundary cases wrong")
	}
}

func TestTailsComplementary(t *testing.T) {
	f := func(nRaw uint8, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		p := 0.37
		ge := BinomTailGE(n, p, k+1)
		le := BinomTailLE(n, p, k)
		return math.Abs(ge+le-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChernoffBoundsAreBounds(t *testing.T) {
	// The Chernoff bound must upper-bound the exact binomial tail.
	n, p := 200, 0.5
	mu := float64(n) * p
	for _, d := range []float64{0.1, 0.2, 0.5, 1.0} {
		k := int(math.Ceil((1 + d) * mu))
		exact := BinomTailGE(n, p, k)
		bound := ChernoffUpper(mu, d)
		if exact > bound+1e-12 {
			t.Errorf("ChernoffUpper(mu=%v,d=%v)=%v < exact %v", mu, d, bound, exact)
		}
		k = int(math.Floor((1 - d) * mu))
		exact = BinomTailLE(n, p, k)
		bound = ChernoffLower(mu, d)
		if exact > bound+1e-12 {
			t.Errorf("ChernoffLower(mu=%v,d=%v)=%v < exact %v", mu, d, bound, exact)
		}
	}
	if ChernoffUpper(10, 0) != 1 || ChernoffLower(10, -1) != 1 {
		t.Error("non-positive deviation should give trivial bound 1")
	}
}

func TestHoeffdingMGF(t *testing.T) {
	// E[e^{tX}] for X ~ Bin(m, 1/2) equals ((1+e^t)/2)^m; check m=1 directly.
	t1 := 0.7
	want := (1 + math.Exp(t1)) / 2
	if got := HoeffdingMGF(1, t1); math.Abs(got-want) > 1e-12 {
		t.Errorf("HoeffdingMGF(1,%v) = %v, want %v", t1, got, want)
	}
	if got := HoeffdingMGF(0, t1); got != 1 {
		t.Errorf("HoeffdingMGF(0) = %v, want 1", got)
	}
}

func TestLogHelpers(t *testing.T) {
	cases := []struct{ n, ceil, floor int }{
		{1, 0, 0}, {2, 1, 1}, {3, 2, 1}, {4, 2, 2}, {5, 3, 2},
		{1024, 10, 10}, {1025, 11, 10},
	}
	for _, c := range cases {
		if got := CeilLog2(c.n); got != c.ceil {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.n, got, c.ceil)
		}
		if got := FloorLog2(c.n); got != c.floor {
			t.Errorf("FloorLog2(%d) = %d, want %d", c.n, got, c.floor)
		}
	}
	if CeilLog2(0) != 0 || FloorLog2(0) != 0 {
		t.Error("log of 0 should clamp to 0")
	}
}

func TestSmallestPrimeAtLeast(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {14, 17}, {100, 101}, {1000, 1009},
	}
	for _, c := range cases {
		if got := SmallestPrimeAtLeast(c.n); got != c.want {
			t.Errorf("SmallestPrimeAtLeast(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPrimeProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%5000) + 2
		p := SmallestPrimeAtLeast(n)
		if p < n {
			return false
		}
		// p must be prime and every number in [n, p) composite.
		if !isPrime(p) {
			return false
		}
		for m := n; m < p; m++ {
			if isPrime(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
