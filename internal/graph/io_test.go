package graph

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestCSRBuilderEndpointValidation(t *testing.T) {
	// The regression this pins: fillCSR used to index off[arc+1] with no
	// bounds check, so a bad endpoint panicked with a raw index error deep
	// inside the builder. Arc/Edge now record a descriptive error.
	cases := []struct {
		name string
		u, v int32
	}{
		{"negative-src", -1, 0},
		{"negative-dst", 0, -3},
		{"src==n", 4, 0},
		{"dst==n", 0, 4},
		{"src>n", 9, 0},
		{"dst>n", 1, 100},
	}
	for _, tc := range cases {
		t.Run("arc/"+tc.name, func(t *testing.T) {
			b := NewCSRBuilder(4, 0)
			b.Arc(0, 1)
			b.Arc(tc.u, tc.v)
			if b.Err() == nil {
				t.Fatal("out-of-range arc not recorded")
			}
			if _, err := b.BuildE(); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("BuildE error not descriptive: %v", err)
			}
		})
		t.Run("edge/"+tc.name, func(t *testing.T) {
			b := NewCSRBuilder(4, 0)
			b.Edge(tc.u, tc.v)
			if _, err := b.BuildE(); err == nil {
				t.Fatal("out-of-range edge not rejected")
			}
		})
	}
	t.Run("build-panic-descriptive", func(t *testing.T) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Build on an out-of-range builder must panic")
			}
			if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("panic value not the descriptive error: %v", r)
			}
		}()
		b := NewCSRBuilder(2, 0)
		b.Arc(0, 2)
		b.Build()
	})
	t.Run("in-range-unchanged", func(t *testing.T) {
		b := NewCSRBuilder(3, 2)
		b.Edge(0, 1)
		b.Edge(1, 2)
		if b.Err() != nil {
			t.Fatalf("in-range edges recorded an error: %v", b.Err())
		}
		c, err := b.BuildE()
		if err != nil {
			t.Fatal(err)
		}
		if c.N() != 3 || c.Arcs() != 4 {
			t.Fatalf("BuildE shape wrong: n=%d arcs=%d", c.N(), c.Arcs())
		}
	})
}

func TestImportEdgeList(t *testing.T) {
	in := `# SNAP-style comment
% percent comment too

101 7
7 300
300 101
9 101 7 300
`
	g, ids, err := ImportEdgeList(strings.NewReader(in), "test", EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 6 {
		t.Fatalf("shape wrong: n=%d m=%d", g.N(), g.M())
	}
	// First-seen remapping: 101, 7, 300, 9.
	want := []int64{101, 7, 300, 9}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids[%d] = %d, want %d", i, ids[i], id)
		}
	}
	// The adjacency row "9 101 7 300" makes node 9 adjacent to the triangle.
	if g.Deg(3) != 3 {
		t.Fatalf("adjacency-row node degree = %d, want 3", g.Deg(3))
	}
}

func TestImportEdgeListPolicies(t *testing.T) {
	loops := "1 1\n1 2\n"
	if _, _, err := ImportEdgeList(strings.NewReader(loops), "t", EdgeListOptions{}); err == nil || !strings.Contains(err.Error(), "self loop") {
		t.Fatalf("self loop not rejected: %v", err)
	}
	g, _, err := ImportEdgeList(strings.NewReader(loops), "t", EdgeListOptions{DropSelfLoops: true})
	if err != nil || g.M() != 1 {
		t.Fatalf("drop-self-loops failed: m=%v err=%v", g, err)
	}

	dups := "1 2\n2 1\n"
	if _, _, err := ImportEdgeList(strings.NewReader(dups), "t", EdgeListOptions{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate not rejected: %v", err)
	}
	g, _, err = ImportEdgeList(strings.NewReader(dups), "t", EdgeListOptions{DropDuplicates: true})
	if err != nil || g.M() != 1 {
		t.Fatalf("drop-duplicates failed: err=%v", err)
	}
}

func TestImportEdgeListErrors(t *testing.T) {
	for name, in := range map[string]string{
		"single-token": "42\n",
		"bad-src":      "x 1\n",
		"bad-dst":      "1 0x10\n",
		"float-id":     "1.5 2\n",
	} {
		if _, _, err := ImportEdgeList(strings.NewReader(in), name, EdgeListOptions{}); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
	if g, ids, err := ImportEdgeList(strings.NewReader("# only comments\n"), "empty", EdgeListOptions{}); err != nil || g.N() != 0 || len(ids) != 0 {
		t.Errorf("comment-only file should import empty: %v", err)
	}
}

func TestImportInstance(t *testing.T) {
	in := "# header comment\n2 3\n0 0\n0 1\n1 1\n1 2\n\n"
	b, err := ImportInstance(strings.NewReader(in), "test")
	if err != nil {
		t.Fatal(err)
	}
	if b.NU() != 2 || b.NV() != 3 || b.M() != 4 {
		t.Fatalf("parsed sizes wrong: NU=%d NV=%d M=%d", b.NU(), b.NV(), b.M())
	}
	// A leading zero is a decimal digit, in the header and in an edge.
	b, err = ImportInstance(strings.NewReader("011 9\n10 08\n"), "test")
	if err != nil {
		t.Fatal(err)
	}
	if b.NU() != 11 || b.NV() != 9 || b.M() != 1 || b.NbrU(10)[0] != 8 {
		t.Errorf("zero-padded ids: got %dx%d with edges %v, want 11x9 with edge (10,8)", b.NU(), b.NV(), b.Edges())
	}
}

func TestImportInstanceErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":           "",
		"comments-only":   "# nothing\n\n",
		"bad-header":      "x y\n",
		"negative-header": "-1 2\n",
		"bad-edge":        "2 2\n0 z\n",
		"edge-u-range":    "2 2\n5 0\n",
		"edge-v-range":    "2 2\n0 5\n",
		"truncated-edge":  "2 2\n0\n",
		// Node IDs and shapes are base 10, two fields per line. Read with
		// octal and hex prefixes and trailing tokens ignored, each of these
		// would load.
		"octal-edge":      "9 9\n0 010\n",
		"bad-octal-edge":  "8 8\n0 08\n",
		"hex-edge":        "9 9\n0 0x3\n",
		"trailing-edge":   "9 9\n0 1 7\n",
		"octal-header":    "02147483648 1\n",
		"trailing-header": "9 9 4\n",
	} {
		if _, err := ImportInstance(strings.NewReader(in), name); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

// TestImportInstanceErrorText pins the exact errors of the shape checks and
// of out-of-range edges. A header past the int32 node-id layout is rejected
// from the header alone, before anything of the claimed size is allocated.
func TestImportInstanceErrorText(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"2 2\n5 0\n", "f:2: bipartite: edge (5,0) out of range U=[0,2) V=[0,2)"},
		{"# shape\n2 2\n\n0 -1\n", "f:4: bipartite: edge (0,-1) out of range U=[0,2) V=[0,2)"},
		{"-1 2\n", "f:1: negative instance shape -1 2"},
		{"2147483648 1\n0 0\n", "f:1: instance shape 2147483648 1 exceeds the int32 node-id limit of 2147483647 per side"},
		{"# shape\n1 4294967297\n", "f:2: instance shape 1 4294967297 exceeds the int32 node-id limit of 2147483647 per side"},
	} {
		_, err := ImportInstance(strings.NewReader(c.in), "f")
		if err == nil || err.Error() != c.want {
			t.Errorf("ImportInstance(%q) error = %v, want %q", c.in, err, c.want)
		}
	}
}

// FuzzImportInstance checks the instance reader on arbitrary text: it
// either fails with a "name:" error or returns an instance whose rows are
// sorted and duplicate-free, whose sides are transposes of each other,
// whose edge count is the number of distinct parsed pairs, and which
// survives a snapshot round trip unchanged.
func FuzzImportInstance(f *testing.F) {
	f.Add([]byte("2 3\n0 0\n0 1\n1 1\n1 2\n"))
	f.Add([]byte("# c\n\n3 3\n2 0\n0 2\n0 2\n% dup above\n1 1 9\n"))
	f.Add([]byte("0 0\n"))
	f.Add([]byte("2 2\n5 0\n"))
	f.Add([]byte("-1 2\n"))
	f.Add([]byte("2147483648 1\n"))
	f.Add([]byte("0x10 010\n15 7\n"))
	f.Add([]byte("2 2\n0\n"))
	f.Add([]byte("9 9\n0 010\n0 08\n"))
	f.Add([]byte("9 9 4\n0 0x3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		// Parse the text independently: the header, then the distinct pairs,
		// each a line of exactly two base-10 integers.
		var header []int
		pairs := make(map[[2]int]bool)
		for _, line := range strings.Split(string(data), "\n") {
			text := strings.TrimSpace(line)
			if text == "" || text[0] == '#' || text[0] == '%' {
				continue
			}
			var a, b int
			err := fmt.Errorf("%q is not two fields", text)
			if f := strings.Fields(text); len(f) == 2 {
				if a, err = strconv.Atoi(f[0]); err == nil {
					b, err = strconv.Atoi(f[1])
				}
			}
			if header == nil {
				if err != nil {
					break
				}
				header = []int{a, b}
			} else if err == nil {
				pairs[[2]int{a, b}] = true
			}
		}
		// A legal header may claim any amount of memory.
		if header != nil && (header[0] > 1<<16 || header[1] > 1<<16) {
			return
		}
		b, err := ImportInstance(bytes.NewReader(data), "fuzz")
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fuzz:") {
				t.Fatalf("error without the name prefix: %v", err)
			}
			return
		}
		if header == nil {
			t.Fatalf("accepted %q, whose header is not two base-10 integers", data)
		}
		if b.NU() != header[0] || b.NV() != header[1] {
			t.Fatalf("shape %dx%d, header %v", b.NU(), b.NV(), header)
		}
		for _, side := range []CSR{b.CSRU(), b.CSRV()} {
			for r := 0; r < side.N(); r++ {
				row := side.Row(r)
				for i := 1; i < len(row); i++ {
					if row[i-1] >= row[i] {
						t.Fatalf("row %d not sorted and duplicate-free: %v", r, row)
					}
				}
			}
		}
		if b.CSRU().Arcs() != b.CSRV().Arcs() {
			t.Fatalf("sides hold %d and %d arcs", b.CSRU().Arcs(), b.CSRV().Arcs())
		}
		if err := checkTranspose(b.CSRU(), b.CSRV(), "U→V"); err != nil {
			t.Fatal(err)
		}
		if b.M() != len(pairs) {
			t.Fatalf("M = %d, want %d distinct pairs", b.M(), len(pairs))
		}
		var buf bytes.Buffer
		if err := b.ExportSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ImportBipartiteSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("re-importing an accepted instance: %v", err)
		}
		if !sameCSR(back.CSRU(), b.CSRU()) || !sameCSR(back.CSRV(), b.CSRV()) {
			t.Fatal("snapshot round trip changed the instance")
		}
	})
}

func TestReadBipartiteFileDispatch(t *testing.T) {
	dir := t.TempDir()

	// Instance text.
	inst := filepath.Join(dir, "inst.txt")
	if err := os.WriteFile(inst, []byte("2 3\n0 0\n0 1\n1 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBipartiteFile(inst)
	if err != nil || b.NU() != 2 || b.NV() != 3 {
		t.Fatalf("instance dispatch failed: %v", err)
	}

	// SNAP edge list (leading comment marks it): triangle, both arc
	// directions listed like a real SNAP export.
	snap := filepath.Join(dir, "snap.txt")
	edge := "# Nodes: 3 Edges: 3\n0 1\n1 0\n1 2\n2 1\n2 0\n0 2\n"
	if err := os.WriteFile(snap, []byte(edge), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err = ReadBipartiteFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// FromGraph encoding of a triangle: 3 left, 3 right, 6 edges.
	if b.NU() != 3 || b.NV() != 3 || b.M() != 6 {
		t.Fatalf("edge-list dispatch shape wrong: NU=%d NV=%d M=%d", b.NU(), b.NV(), b.M())
	}

	// Bipartite snapshot.
	csrPath := filepath.Join(dir, "inst.csr")
	want, err := BipartiteFromEdges(2, 3, [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(csrPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.ExportSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err = ReadBipartiteFile(csrPath)
	if err != nil || b.NU() != 2 || b.NV() != 3 || b.M() != 4 {
		t.Fatalf("snapshot dispatch failed: %v", err)
	}

	// Graph snapshot goes through the Section 1.2 encoding.
	gPath := filepath.Join(dir, "g.csr")
	g, err := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	f, err = os.Create(gPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ExportSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err = ReadBipartiteFile(gPath)
	if err != nil || b.NU() != 3 || b.NV() != 3 || b.M() != 6 {
		t.Fatalf("graph-snapshot dispatch failed: %v", err)
	}

	if _, err := ReadBipartiteFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file should error")
	}
}

func TestEdgeListSnapshotRoundTripLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	g := RandomSparseGraph(2000, 6000, rng)
	var sb strings.Builder
	sb.WriteString("# random graph\n")
	for _, e := range g.Edges() {
		// Scatter the external IDs so the dense remap is exercised.
		sb.WriteString(strconv.FormatInt(int64(e[0])*3+100, 10) + " " + strconv.FormatInt(int64(e[1])*3+100, 10) + "\n")
	}
	got, ids, err := ImportEdgeList(strings.NewReader(sb.String()), "rand", EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != g.M() {
		t.Fatalf("edge count changed: %d vs %d", got.M(), g.M())
	}
	// Check adjacency is preserved under the ID mapping.
	back := make(map[int64]int, len(ids))
	for i, id := range ids {
		back[id] = i
	}
	for _, e := range g.Edges() {
		u, okU := back[int64(e[0])*3+100]
		v, okV := back[int64(e[1])*3+100]
		if !okU || !okV || !got.HasEdge(u, v) {
			t.Fatalf("edge %v lost in import", e)
		}
	}
}
