package sbqa

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// ambientEffects counts, per enclosing declaration, the sites under
// internal/ and cmd/ that reach outside the program's own state: the wall
// clock, the file system and process through package os, and new
// goroutines. Each is a place a deterministic simulation cannot drive; the
// list may only shrink.
var ambientEffects = map[string]int{
	"cmd/sbqad.bootSpec: os.ReadFile":                     1,
	"cmd/sbqad.gateway.forward: time.Now":                 1,
	"cmd/sbqad.gateway.forward: time.Since":               1,
	"cmd/sbqad.gateway.init: go":                          1,
	"cmd/sbqad.gateway.proxySSE: go":                      1,
	"cmd/sbqad.gateway.syncLimiter: time.Now":             1,
	"cmd/sbqad.gateway.syncLimiter: time.Since":           1,
	"cmd/sbqad.scratch.await: time.NewTimer":              1,
	"cmd/sbqad.serve: go":                                 1,
	"cmd/sbqad.startProcs: os.Getenv":                     1,
	"cmd/sbqalab.main: os.Exit":                           3,
	"cmd/sbqalab.runPaper: os.Exit":                       1,
	"cmd/sbqalab.runReport: os.WriteFile":                 1,
	"cmd/sbqalab.writeCSVs: os.Create":                    1,
	"cmd/sbqalab.writeCSVs: os.MkdirAll":                  1,
	"cmd/sbqalab.writeReports: os.MkdirAll":               1,
	"cmd/sbqalab.writeReports: os.WriteFile":              1,
	"internal/cluster.Node.Forward: time.Now":             1,
	"internal/cluster.Node.Forward: time.Until":           1,
	"internal/cluster.Node.Start: go":                     2,
	"internal/cluster.Node.closeLinks: time.Now":          1,
	"internal/cluster.Node.heartbeatLoop: time.NewTicker": 1,
	"internal/cluster.Node.linkTo: go":                    1,
	"internal/cluster.Node.probeAll: go":                  1,
	"internal/cluster.Node.probeAll: time.Now":            1,
	"internal/cluster.Node.probeAll: time.Since":          1,
	"internal/cluster.Node.serveReads: go":                1,
	"internal/cluster.callPool: time.NewTimer":            1,
	"internal/cluster.link.call: time.Until":              1,
	"internal/cluster.membership.observe: time.Now":       1,
	"internal/cluster.replicator.loop: time.NewTicker":    1,
	"internal/cluster.statFile: os.Stat":                  1,
	"internal/live.Engine.persistLoop: time.NewTicker":    1,
	"internal/live.Engine.snapshotLoop: time.NewTicker":   1,
	"internal/live.NewEngine: go":                         3,
	"internal/live.NewEngine: time.Now":                   1,
	"internal/live.NewEngine: time.Since":                 1,
	"internal/live.Worker.accept: go":                     1,
	"internal/live.Worker.accept: time.Now":               1,
	"internal/live.Worker.run: time.NewTimer":             1,
	"internal/live.Worker.run: time.Since":                1,
	"internal/mediator.callWithDeadline: go":              1,
	"internal/mediator.env.collectFanout: go":             2,
	"internal/persist.LandSegmentChunk: os.OpenFile":      1,
	"internal/persist.LandSegmentChunk: os.ReadDir":       1,
	"internal/persist.LandSegmentChunk: os.Remove":        1,
	"internal/persist.LandSegmentChunk: os.Rename":        1,
	"internal/persist.LandSegmentChunk: os.Stat":          1,
	"internal/persist.Open: os.MkdirAll":                  1,
	"internal/persist.Recorder.Start: go":                 1,
	"internal/persist.ScanSegmentDir: os.IsNotExist":      1,
	"internal/persist.ScanSegmentDir: os.ReadDir":         1,
	"internal/persist.Store.OpenSealedSegment: os.Open":   1,
	"internal/persist.Store.WriteSnapshot: os.CreateTemp": 1,
	"internal/persist.Store.WriteSnapshot: os.Remove":     6,
	"internal/persist.Store.WriteSnapshot: os.Rename":     1,
	"internal/persist.Store.loadLatestSnapshot: os.Open":  1,
	"internal/persist.Store.scan: os.ReadDir":             1,
	"internal/persist.createSegment: os.OpenFile":         1,
	"internal/persist.mkdirDurable: os.IsExist":           1,
	"internal/persist.mkdirDurable: os.IsNotExist":        1,
	"internal/persist.mkdirDurable: os.Mkdir":             1,
	"internal/persist.mkdirDurable: os.Stat":              1,
	"internal/persist.readSegment: os.Open":               1,
	"internal/persist.syncDir: os.Open":                   1,
	"internal/persist.validateSegmentFile: os.Open":       1,
	"internal/trace.New: time.Now":                        1,
	"internal/trace.Now: time.Since":                      1,
	"internal/trace.start: time.Now":                      1,
}

// clockFuncs are the package time functions that read or wait on the wall
// clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Sleep": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true, "Tick": true,
}

// TestNoAmbientEffects is the ratchet behind deterministic simulation: every
// non-test site in internal/ and cmd/ (internal/benchgate, a CI tool,
// aside) that names a wall-clock function of package time, names a
// function of package os, or starts a goroutine with `go` must be in
// ambientEffects, counted by enclosing declaration and effect. A site the
// list does not hold fails, and so does an entry whose count no longer
// matches: a new ambient effect is a design decision made in the diff that
// adds it. It reads the module through the same loader as
// TestNoDeadSurface.
func TestNoAmbientEffects(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (~3 s)")
	}
	m := loadModule(t)
	found := map[string]int{}
	for _, p := range m.module {
		path := strings.TrimPrefix(p.ImportPath, "sbqa/")
		if !strings.HasPrefix(path, "internal/") && !strings.HasPrefix(path, "cmd/") || path == "internal/benchgate" {
			continue
		}
		for _, f := range m.files[p.ImportPath] {
			for _, decl := range f.Decls {
				encl := path + "." + declName(decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						found[encl+": go"]++
					case *ast.Ident:
						fn, ok := m.info.Uses[n].(*types.Func)
						if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
							break
						}
						if pkg := fn.Pkg().Path(); pkg == "os" || pkg == "time" && clockFuncs[fn.Name()] {
							found[encl+": "+pkg+"."+fn.Name()]++
						}
					}
					return true
				})
			}
		}
	}
	var diffs []string
	for site, n := range found {
		if ambientEffects[site] != n {
			diffs = append(diffs, fmt.Sprintf("%q: %d sites, allowed %d", site, n, ambientEffects[site]))
		}
	}
	for site, n := range ambientEffects {
		if _, ok := found[site]; !ok {
			diffs = append(diffs, fmt.Sprintf("%q: 0 sites, allowed %d (drop the entry)", site, n))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Errorf("%d ambient-effect sites differ from ambientEffects — route a new one through an injected clock, disk or caller, or add it to the list in the same diff:\n  %s",
			len(diffs), strings.Join(diffs, "\n  "))
	}
}

// declName names a top-level declaration as TestNoDeadSurface reports it:
// Func, Type.Method, or the names a var, const or type spec declares.
func declName(decl ast.Decl) string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return d.Name.Name
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		switch r := recv.(type) {
		case *ast.IndexExpr:
			recv = r.X
		case *ast.IndexListExpr:
			recv = r.X
		}
		return recv.(*ast.Ident).Name + "." + d.Name.Name
	case *ast.GenDecl:
		var names []string
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.ValueSpec:
				for _, id := range s.Names {
					names = append(names, id.Name)
				}
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			}
		}
		return strings.Join(names, ",")
	}
	return "?"
}
