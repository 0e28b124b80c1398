package graph

// Text-format graph I/O: SNAP-style edge-list / adjacency import with
// arbitrary node-ID remapping, the splitting-instance text format (a
// "nu nv" header followed by one "u v" edge per line, previously parsed
// inside cmd/wsplit), and a dispatcher that loads any supported file as a
// splitting instance. The binary snapshot format lives in snapshot.go.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// EdgeListOptions is the input-hygiene policy of ImportEdgeList. The zero
// value is strict: a self loop or a duplicate edge is a descriptive error.
// Real-world exports usually need both drops enabled — SNAP files list a
// directed arc per line, so an undirected import sees every edge twice.
type EdgeListOptions struct {
	// DropSelfLoops silently skips u→u lines instead of rejecting the file.
	DropSelfLoops bool
	// DropDuplicates silently deduplicates repeated edges (in either
	// orientation) instead of rejecting the file.
	DropDuplicates bool
}

// ImportEdgeList parses a SNAP-style text graph from r: lines starting with
// '#' or '%' are comments, blank lines are skipped, and every other line is
// whitespace-separated integer node IDs — either an edge "u v" or an
// adjacency row "u v1 v2 ... vk". Node IDs are arbitrary int64s (SNAP files
// routinely skip IDs); they are remapped to dense indices 0..n-1 in first-
// seen order, streamed through a CSRBuilder, and the returned slice maps
// each dense index back to its original ID. name labels parse errors
// (typically the file path).
func ImportEdgeList(r io.Reader, name string, opt EdgeListOptions) (*Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	remap := make(map[int64]int32)
	var ids []int64
	dense := func(id int64) (int32, error) {
		if i, ok := remap[id]; ok {
			return i, nil
		}
		if len(ids) == math.MaxInt32 {
			return 0, fmt.Errorf("more than %d distinct node IDs", math.MaxInt32)
		}
		i := int32(len(ids))
		remap[id] = i
		ids = append(ids, id)
		return i, nil
	}
	var pairs []int32 // flat dense (u, v) endpoint pairs, one per input edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("%s:%d: want an edge \"u v\" or adjacency row \"u v1 v2 ...\", got %q", name, line, text)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: bad node ID %q: %w", name, line, fields[0], err)
		}
		u, err := dense(src)
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", name, line, err)
		}
		for _, f := range fields[1:] {
			dst, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s:%d: bad node ID %q: %w", name, line, f, err)
			}
			if dst == src {
				if opt.DropSelfLoops {
					continue
				}
				return nil, nil, fmt.Errorf("%s:%d: self loop at node ID %d (enable the drop-self-loops policy to skip)", name, line, src)
			}
			v, err := dense(dst)
			if err != nil {
				return nil, nil, fmt.Errorf("%s:%d: %w", name, line, err)
			}
			pairs = append(pairs, u, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	bld := NewCSRBuilder(len(ids), len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		bld.Edge(pairs[i], pairs[i+1])
	}
	c, err := bld.BuildE()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	// Build deduplicates rows, so a shortfall against the accepted edge
	// count is exactly the number of duplicate edges (either orientation).
	if dup := len(pairs)/2 - c.Arcs()/2; dup > 0 && !opt.DropDuplicates {
		return nil, nil, fmt.Errorf("%s: %d duplicate edge(s) — SNAP exports list both arc directions; enable the drop-duplicates policy to deduplicate", name, dup)
	}
	return fromCSR(c), ids, nil
}

// ReadEdgeList is ImportEdgeList over the contents of path.
func ReadEdgeList(path string, opt EdgeListOptions) (*Graph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ImportEdgeList(f, path, opt)
}

// ImportInstance parses the splitting-instance text format: a header line
// "nu nv" followed by one "u v" edge per line (0-based indices; u is a
// constraint, v a variable). Blank lines and '#'/'%' comment lines are
// skipped. name labels parse errors (typically the file path).
func ImportInstance(r io.Reader, name string) (*Bipartite, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	nu, nv := -1, -1 // until the header is read
	var pairs []int32
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		u, v, err := parsePair(text)
		if nu < 0 {
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad header %q (want \"nu nv\"): %w", name, line, text, err)
			}
			if u < 0 || v < 0 {
				return nil, fmt.Errorf("%s:%d: negative instance shape %d %d", name, line, u, v)
			}
			if u > math.MaxInt32 || v > math.MaxInt32 {
				return nil, fmt.Errorf("%s:%d: instance shape %d %d exceeds the int32 node-id limit of %d per side", name, line, u, v, math.MaxInt32)
			}
			nu, nv = u, v
			continue
		}
		if err == nil {
			err = checkBipartiteEdge(nu, nv, u, v)
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, line, err)
		}
		pairs = append(pairs, int32(u), int32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if nu < 0 {
		return nil, fmt.Errorf("%s: missing \"nu nv\" header", name)
	}
	return bipartiteFromPairs(nu, nv, pairs), nil
}

// parsePair parses a line of exactly two base-10 integers.
func parsePair(text string) (a, b int, err error) {
	f := strings.Fields(text)
	if len(f) != 2 {
		return 0, 0, fmt.Errorf("want two fields, got %q", text)
	}
	if a, err = strconv.Atoi(f[0]); err != nil {
		return 0, 0, fmt.Errorf("bad node ID %q: %w", f[0], err)
	}
	if b, err = strconv.Atoi(f[1]); err != nil {
		return 0, 0, fmt.Errorf("bad node ID %q: %w", f[1], err)
	}
	return a, b, nil
}

// ReadInstance is ImportInstance over the contents of path.
func ReadInstance(path string) (*Bipartite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ImportInstance(f, path)
}

// ReadBipartiteFile loads a splitting instance from any supported on-disk
// format, dispatching on content:
//
//   - a binary CSR snapshot (detected by magic, regardless of extension):
//     a bipartite snapshot loads directly and without an O(m) rebuild; a
//     graph snapshot is converted via the Section 1.2 encoding (FromGraph).
//   - text whose first non-blank line is a '#'/'%' comment: a SNAP-style
//     edge list (self loops and duplicate arcs dropped — real exports list
//     both arc directions), converted via FromGraph.
//   - any other text: the "nu nv"-header instance format.
//
// Headerless edge lists are ambiguous with the instance format; convert
// them explicitly with csrpack -format edgelist.
func ReadBipartiteFile(path string) (*Bipartite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if IsSnapshot(data) {
		g, b, err := ImportAnySnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if b != nil {
			return b, nil
		}
		return FromGraph(g), nil
	}
	if TextLooksLikeEdgeList(data) {
		g, _, err := ImportEdgeList(bytes.NewReader(data), path, EdgeListOptions{DropSelfLoops: true, DropDuplicates: true})
		if err != nil {
			return nil, err
		}
		return FromGraph(g), nil
	}
	return ImportInstance(bytes.NewReader(data), path)
}

// TextLooksLikeEdgeList reports whether the first non-blank line of a text
// graph file is a
// '#'/'%' comment — the conventional SNAP edge-list header.
func TextLooksLikeEdgeList(data []byte) bool {
	for _, line := range bytes.Split(data, []byte("\n")) {
		text := bytes.TrimSpace(line)
		if len(text) == 0 {
			continue
		}
		return text[0] == '#' || text[0] == '%'
	}
	return false
}
