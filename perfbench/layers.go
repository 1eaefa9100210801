package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"strings"
)

// Layers are this repository's modules. CPU samples are billed by the
// source file of their innermost repository frame — never by function
// name, because inlining renames functions (a lognormal trace closure
// inlined into the root package's link constructor is still trace
// work). Standard-library and runtime frames above that frame bill to
// its layer; a sample with no repository frame bills to go.runtime.
const (
	layerRuntime = "go.runtime"
	layerBench   = "bench" // this benchmark's own hooks
	layerClock   = "netem.clock"
)

// layers lists every layer in report order.
var layers = []string{
	layerClock, "netem.pipe", "trace", "httpx", "handshake", "core",
	"origin", "videostore", "edge", "stats", "fleet", "msplayer",
	layerRuntime, layerBench,
}

// layerDirs maps a repository directory (and, where noted, its
// subdirectories) to its layer. The first match wins.
var layerDirs = []struct {
	dir     string
	subdirs bool
	layer   string
}{
	{"perfbench", true, layerBench},
	{"internal/netem/trace", false, "trace"},
	{"internal/netem", false, "netem.pipe"}, // except clockFiles and the Loop in event.go
	{"internal/httpx", false, "httpx"},
	{"internal/handshake", false, "handshake"},
	{"internal/core", true, "core"},     // with the estimator
	{"internal/origin", true, "origin"}, // with dnsx
	{"internal/videostore", false, "videostore"},
	{"internal/edge", false, "edge"},
	{"internal/stats", false, "stats"},
	{"internal/fleet", false, "fleet"},
	{".", false, "msplayer"},
}

// clockFiles are the netem files that make up the virtual clock.
var clockFiles = map[string]bool{
	"internal/netem/clock.go": true,
	"internal/netem/wheel.go": true,
}

// loopFile holds the event Loop, which belongs to the clock layer
// although the rest of the file is connection plumbing.
const loopFile = "internal/netem/event.go"

// layerMap attributes repository source positions to layers.
type layerMap struct {
	root      string     // absolute repository root
	loopLines [][2]int64 // line spans of the Loop declarations in loopFile
}

// newLayerMap reads the repository at root for the Loop's line spans.
func newLayerMap(root string) (*layerMap, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &layerMap{root: abs}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(abs, loopFile), nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("layer map: %w", err)
	}
	isLoop := func(name string) bool { return name == "Loop" || name == "chanMutex" || name == "NewLoop" }
	for _, d := range f.Decls {
		var hit bool
		switch d := d.(type) {
		case *ast.FuncDecl:
			hit = isLoop(d.Name.Name)
			if d.Recv != nil && len(d.Recv.List) == 1 {
				t := d.Recv.List[0].Type
				if s, ok := t.(*ast.StarExpr); ok {
					t = s.X
				}
				if id, ok := t.(*ast.Ident); ok {
					hit = isLoop(id.Name)
				}
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok && isLoop(ts.Name.Name) {
					hit = true
				}
			}
		}
		if hit {
			m.loopLines = append(m.loopLines, [2]int64{
				int64(fset.Position(d.Pos()).Line), int64(fset.Position(d.End()).Line)})
		}
	}
	if len(m.loopLines) == 0 {
		return nil, fmt.Errorf("layer map: no Loop declarations in %s", loopFile)
	}
	return m, nil
}

// repoFile returns file relative to the repository root, or false for a
// file outside it. Profiles of -trimpath builds name the program's
// files by module and version ("repro@v0.0.0/internal/netem/clock.go")
// and the benchmark's by module path ("repro/perfbench/child.go");
// other builds name files absolutely.
func (m *layerMap) repoFile(file string) (string, bool) {
	if rel, ok := strings.CutPrefix(file, m.root+"/"); ok {
		return rel, true
	}
	if rest, ok := strings.CutPrefix(file, "repro@"); ok {
		if _, rel, ok := strings.Cut(rest, "/"); ok {
			return rel, true
		}
	}
	if rel, ok := strings.CutPrefix(file, "repro/"); ok {
		return rel, true
	}
	return "", false
}

// layerOf returns the layer of a repository file ("" if unmapped).
func (m *layerMap) layerOf(rel string, line int64) string {
	if clockFiles[rel] {
		return layerClock
	}
	if rel == loopFile {
		for _, span := range m.loopLines {
			if line >= span[0] && line <= span[1] {
				return layerClock
			}
		}
	}
	dir := path.Dir(rel)
	for _, d := range layerDirs {
		if dir == d.dir || (d.subdirs && strings.HasPrefix(dir, d.dir+"/")) {
			return d.layer
		}
	}
	return ""
}

// attribute splits a profile's CPU time (nanoseconds) across layers.
// Every sample lands in exactly one layer, so the result sums to the
// profile total; a repository frame no layer claims is an error, so a
// new package cannot fall into an unattributed bucket.
func (m *layerMap) attribute(p *cpuProfile) (map[string]int64, error) {
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		layer := layerRuntime
	stack:
		for _, id := range s.stack {
			for _, fr := range p.locations[id] {
				rel, ok := m.repoFile(fr.file)
				if !ok {
					continue
				}
				if layer = m.layerOf(rel, fr.line); layer == "" {
					return nil, fmt.Errorf("layer map: no layer for %s", rel)
				}
				break stack
			}
		}
		out[layer] += s.value
	}
	return out, nil
}
