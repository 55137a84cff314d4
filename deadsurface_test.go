package sbqa

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// assertedOnly lists what is alive only through an interface-satisfaction
// assert (`var _ X = …`) outside a `main` package: a library's blank
// declarations reach nothing below, so an interface or type whose sole
// non-test mention is such an assert must be named here, with the reason the assert is worth keeping. Nothing else
// belongs in this list — unreached code is deleted, not excused.
var assertedOnly = map[string]string{}

// testSeams lists the methods no binary or bench/ probe reaches that a test
// needs as a hook into the live code, each with the test that needs it.
// Nothing else belongs in this list either.
var testSeams = map[string]string{
	"sbqa/internal/persist.Recorder.CloseAbrupt": "internal/live's TestCrashKillRecoversBoundedLoss and TestDepartureForgottenAcrossRestart stop the journal without its final sync, as a process kill would",
}

// calledByStd lists the method names the standard library calls through an
// interface that module code never calls through itself, each with the std
// reader that calls it: a live type's method of one of these names is alive.
var calledByStd = map[string]string{
	"String":        "fmt formats a Stringer",
	"Error":         "fmt formats an error",
	"MarshalJSON":   "encoding/json encodes a Marshaler",
	"UnmarshalJSON": "encoding/json decodes into an Unmarshaler",
	"Len":           "sort and container/heap order a sort.Interface",
	"Less":          "sort and container/heap order a sort.Interface",
	"Swap":          "sort and container/heap order a sort.Interface",
	"Push":          "container/heap grows a heap.Interface",
	"Pop":           "container/heap shrinks a heap.Interface",
	"ServeHTTP":     "net/http serves a Handler",
	"Read":          "io and bufio read an io.Reader",
	"Write":         "io, bufio and fmt write an io.Writer",
	"Close":         "net/http and io close what they were handed",
	"Unwrap":        "errors.Is and errors.As walk a wrapped chain",
	"Is":            "errors.Is matches a target",
	"As":            "errors.As converts to a target",
}

// unwrittenFields lists the exported fields live code reads and no live
// code writes, each with the reason it stays a field. It is empty, and
// nothing belongs in it: an unwritten field is a knob only tests set, so it
// becomes a constant or goes with the branch it guards.
var unwrittenFields = map[string]string{}

// TestNoDeadSurface is the ratchet behind the dead-surface deletions: every
// package-level func, type, var and const and every method of the root
// module must be reachable from a root — any package-level declaration of a
// `main` package (binaries and examples) or anything the bench/ module
// names. The facade is no root: an alias in sbqa.go is alive only while one
// of those imports it. Reachability is type-checked (go/types over the
// non-test files `go list` reports), and test files reach nothing, so what
// only a test uses is dead.
//
// A method of a live type is alive when a live declaration names it (a call,
// a method value or a method expression), when it implements a method of an
// interface (the module's or std's) that a live declaration calls through,
// when std calls it (calledByStd), or when bench/ selects its name on any
// value — bench/ is another module, so that last rule goes by name alone.
// A type assertion or type-switch case in live code to a module interface
// that no live type implements is a branch that cannot run, and fails too.
//
// So does an exported field of a module struct that live code reads and
// never writes (fieldsReadNotWritten): it holds its zero value in every
// binary, so whatever it guards runs only under a test that sets it. A
// write is a composite-literal element, an assignment, inc/dec or &x.F
// along a selector chain, or a decode into a type that holds the field;
// unwrittenFields excuses a field, with its reason.
func TestNoDeadSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (~3 s)")
	}
	m := loadModule(t)
	fset, module, files, checked, info := m.fset, m.module, m.files, m.checked, m.info
	inModule := m.declares

	// node maps an object to the declaration it is reached as: a
	// package-level object of this module or one of its concrete methods
	// (a generic type's through its origin); nil for locals, fields, std,
	// builtins and interface methods, which a call reaches through the
	// implementations below.
	node := func(obj types.Object) types.Object {
		if !inModule(obj) {
			return nil
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil {
				if types.IsInterface(recv.Type()) {
					return nil
				}
				return fn.Origin()
			}
		}
		if obj.Parent() != obj.Pkg().Scope() {
			return nil
		}
		return obj
	}
	// abstract is the interface method obj is, or nil.
	abstract := func(obj types.Object) *types.Func {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return fn
			}
		}
		return nil
	}

	uses := map[types.Object][]types.Object{} // declaration → the nodes its source mentions
	calls := map[types.Object][]*types.Func{} // declaration → the interface methods it calls through
	decls := map[types.Object][]ast.Node{}    // declaration → its source
	var methods []*types.Func                 // every concrete method of the module
	var roots []types.Object
	mentions := func(decl ast.Node) (to []types.Object, through []*types.Func) {
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := node(info.Uses[id]); o != nil {
					to = append(to, o)
				} else if fn := abstract(info.Uses[id]); fn != nil {
					through = append(through, fn)
				}
			}
			return true
		})
		return to, through
	}
	for _, p := range module {
		for _, f := range files[p.ImportPath] {
			for _, decl := range f.Decls {
				type declared struct {
					node  ast.Node
					names []*ast.Ident
				}
				var specs []declared
				switch d := decl.(type) {
				case *ast.FuncDecl:
					specs = []declared{{d, []*ast.Ident{d.Name}}}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							specs = append(specs, declared{s, []*ast.Ident{s.Name}})
						case *ast.ValueSpec:
							specs = append(specs, declared{s, s.Names})
						}
					}
				}
				for _, spec := range specs {
					to, through := mentions(spec.node)
					fd, ok := spec.node.(*ast.FuncDecl)
					isInit := ok && fd.Recv == nil && fd.Name.Name == "init"
					for _, id := range spec.names {
						o := node(info.Defs[id])
						switch {
						case isInit || o == nil && p.Name == "main":
							// init always runs, and a binary's own `var _ X = …`
							// is one of its declarations: sbqad pins its webhook
							// participants to the optional interfaces the
							// mediator discovers by type assertion.
							o = info.Defs[id]
							roots = append(roots, o)
						case o == nil:
							continue // a library's blank declaration reaches nothing
						case isMethod(o):
							methods = append(methods, o.(*types.Func))
						case p.Name == "main":
							roots = append(roots, o)
						}
						uses[o] = append(uses[o], to...)
						calls[o] = append(calls[o], through...)
						decls[o] = append(decls[o], spec.node)
					}
				}
			}
		}
	}

	// The bench/ module reaches the root module only through qualified
	// names, so its roots are read off the syntax: pkg.Name for every
	// import of an sbqa package, and every other selected name as a method
	// it may call.
	benchSelects := map[string]bool{}
	err := filepath.WalkDir("bench", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := map[string]*types.Package{}
		for _, is := range f.Imports {
			ipath, _ := strconv.Unquote(is.Path.Value)
			if pkg := checked[ipath]; pkg != nil {
				name := pkg.Name()
				if is.Name != nil {
					name = is.Name.Name
				}
				local[name] = pkg
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != nil {
					if o := local[x.Name].Scope().Lookup(sel.Sel.Name); o != nil {
						roots = append(roots, o)
					}
				} else {
					benchSelects[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reach from the roots, then add the methods of live types that an
	// interface call, std or bench/ reaches; repeat until nothing changes.
	live := map[types.Object]bool{}
	through := map[string][]*types.Func{} // interface methods live code calls through, by name
	called := map[*types.Func]bool{}
	var liveTypes []*types.Named
	for len(roots) > 0 {
		for len(roots) > 0 {
			o := roots[len(roots)-1]
			roots = roots[:len(roots)-1]
			if live[o] {
				continue
			}
			live[o] = true
			roots = append(roots, uses[o]...)
			for _, fn := range calls[o] {
				if !called[fn] {
					called[fn] = true
					through[fn.Name()] = append(through[fn.Name()], fn)
				}
			}
			if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
					liveTypes = append(liveTypes, named)
				}
			}
		}
		for _, named := range liveTypes {
			mset := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < mset.Len(); i++ {
				m := node(mset.At(i).Obj())
				if m == nil || live[m] {
					continue
				}
				name := m.Name()
				reached := calledByStd[name] != "" || benchSelects[name]
				for _, fn := range through[name] {
					reached = reached || implements(named, fn.Signature().Recv().Type())
				}
				if reached {
					roots = append(roots, m)
				}
			}
		}
	}

	var dead []string
	excused := map[string]bool{}
	report := func(id string, o types.Object, excuses map[string]string) {
		if _, ok := excuses[id]; ok {
			excused[id] = true
			return
		}
		dead = append(dead, id+"  ("+fset.Position(o.Pos()).String()+")")
	}
	for _, p := range module {
		scope := checked[p.ImportPath].Scope()
		for _, name := range scope.Names() {
			if o := scope.Lookup(name); !live[o] {
				report(p.ImportPath+"."+name, o, assertedOnly)
			}
		}
	}
	for _, m := range methods {
		if !live[m] {
			recv := types.Unalias(m.Signature().Recv().Type())
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			report(m.Pkg().Path()+"."+recv.(*types.Named).Obj().Name()+"."+m.Name(), m, testSeams)
		}
	}
	for _, excuses := range []map[string]string{assertedOnly, testSeams} {
		for id := range excuses {
			if !excused[id] {
				dead = append(dead, id+"  (excused, but reached or gone: drop the entry)")
			}
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declarations no binary or bench/ probe reaches — delete them with the tests that exercised only them:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}

	// An exported field that live code reads and no live code writes holds
	// its zero value in every binary: the branch it guards runs only under a
	// test that sets it.
	var liveDecls []ast.Node
	for o, nodes := range decls {
		if live[o] {
			liveDecls = append(liveDecls, nodes...)
		}
	}
	var unwritten []string
	excused = map[string]bool{}
	for _, f := range fieldsReadNotWritten(m, liveDecls) {
		if _, ok := unwrittenFields[f.id]; ok {
			excused[f.id] = true
			continue
		}
		unwritten = append(unwritten, f.id+"  (read at "+fset.Position(f.read).String()+")")
	}
	for id := range unwrittenFields {
		if !excused[id] {
			unwritten = append(unwritten, id+"  (excused, but written or gone: drop the entry)")
		}
	}
	sort.Strings(unwritten)
	if len(unwritten) > 0 {
		t.Errorf("%d exported fields live code reads and never writes — make them constants or delete them with the branches they guard:\n  %s",
			len(unwritten), strings.Join(unwritten, "\n  "))
	}

	// An optional interface is one live code asserts a value to; when no
	// live type of the module implements it, the branch that asserts it
	// never runs.
	var branches []string
	for _, n := range liveDecls {
		ast.Inspect(n, func(n ast.Node) bool {
			var asserted []ast.Expr
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				asserted = []ast.Expr{n.Type}
			case *ast.CaseClause:
				asserted = n.List // a type switch's cases are type-asserted; an expression switch's resolve to no type name below
			}
			for _, e := range asserted {
				var id *ast.Ident
				switch e := e.(type) {
				case *ast.Ident:
					id = e
				case *ast.SelectorExpr:
					id = e.Sel
				}
				tn, ok := info.Uses[id].(*types.TypeName)
				if id == nil || !ok || !inModule(tn) || !types.IsInterface(tn.Type()) {
					continue
				}
				implemented := false
				for _, named := range liveTypes {
					implemented = implemented || implements(named, tn.Type())
				}
				if !implemented {
					branches = append(branches, tn.Pkg().Path()+"."+tn.Name()+"  ("+fset.Position(e.Pos()).String()+")")
				}
			}
			return true
		})
	}
	sort.Strings(branches)
	if len(branches) > 0 {
		t.Errorf("%d type assertions to an interface no live type implements — the branch never runs:\n  %s",
			len(branches), strings.Join(branches, "\n  "))
	}
}

func isMethod(o types.Object) bool {
	fn, ok := o.(*types.Func)
	return ok && fn.Signature().Recv() != nil
}

// implements reports whether named, or a pointer to it, implements iface.
// Where either is generic it goes by method names alone.
func implements(named *types.Named, iface types.Type) bool {
	in, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	ptr := types.NewPointer(named)
	if generic, ok := iface.(*types.Named); named.TypeParams().Len() == 0 && (!ok || generic.TypeParams().Len() == 0) {
		return types.Implements(ptr, in)
	}
	mset := types.NewMethodSet(ptr)
	for i := 0; i < in.NumMethods(); i++ {
		if mset.Lookup(in.Method(i).Pkg(), in.Method(i).Name()) == nil {
			return false
		}
	}
	return true
}

// moduleSource is the root module's non-test source, type-checked once for every
// test that reads it.
type moduleSource struct {
	fset    *token.FileSet
	module  []listed // dependency order: go list -deps prints a package after its imports
	files   map[string][]*ast.File
	checked map[string]*types.Package
	info    *types.Info
}

// declares reports whether obj belongs to a package of the module.
func (m *moduleSource) declares(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && m.checked[obj.Pkg().Path()] == obj.Pkg()
}

type listed struct {
	ImportPath, Name, Dir, Export string
	GoFiles                       []string
	Standard                      bool
}

var (
	loadOnce   sync.Once
	loaded     *moduleSource
	loadFailed error
)

// loadModule type-checks the non-test files `go list` reports for every
// package of the root module, against std's export data, once per test
// binary.
func loadModule(t *testing.T) *moduleSource {
	t.Helper()
	loadOnce.Do(func() { loaded, loadFailed = load() })
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	return loaded
}

func load() (*moduleSource, error) {
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	m := &moduleSource{
		fset:    token.NewFileSet(),
		files:   map[string][]*ast.File{},
		checked: map[string]*types.Package{},
		info: &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			m.module = append(m.module, p)
		}
	}
	std := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := m.checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	for _, p := range m.module {
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			m.files[p.ImportPath] = append(m.files[p.ImportPath], f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, m.fset, m.files[p.ImportPath], m.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		m.checked[p.ImportPath] = pkg
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// decoders maps each std decoder to the argument it decodes into.
var decoders = map[string]int{
	"encoding/json.Unmarshal":         1,
	"(*encoding/json.Decoder).Decode": 0,
}

type unwrittenField struct {
	id   string
	read token.Pos
}

// fieldsReadNotWritten returns the exported fields of the module's structs
// that decls read and never write. A write is a composite-literal element,
// the left side of an assignment or inc/dec (every field along the selector
// chain), an address taken (&a.B), or membership of a type a decoder call
// decodes into — through pointers, slices, maps and nested structs. A
// decoder is one of std's above or a module func that hands its own `any`
// parameter on to a decoder. Fields are compared by their origin, so a
// generic struct's instances share their fields.
func fieldsReadNotWritten(m *moduleSource, decls []ast.Node) []unwrittenField {
	info := m.info
	field := func(o types.Object) *types.Var {
		if v, ok := o.(*types.Var); ok && v.IsField() && m.declares(v) {
			return v.Origin()
		}
		return nil
	}
	callee := func(call *ast.CallExpr) *types.Func {
		var id *ast.Ident
		switch f := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = f
		case *ast.SelectorExpr:
			id = f.Sel
		}
		fn, _ := info.Uses[id].(*types.Func)
		if fn == nil {
			return nil
		}
		return fn.Origin()
	}
	module := map[*types.Func]int{}
	decodes := func(fn *types.Func) (int, bool) {
		if fn == nil {
			return 0, false
		}
		if i, ok := decoders[fn.FullName()]; ok {
			return i, true
		}
		i, ok := module[fn]
		return i, ok
	}

	// A module func is a decoder when it passes one of its `any` parameters
	// to a decoder; repeat until no func joins.
	var funcs []*ast.FuncDecl
	for _, fs := range m.files {
		for _, f := range fs {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					funcs = append(funcs, fd)
				}
			}
		}
	}
	for grew := true; grew; {
		grew = false
		for _, fd := range funcs {
			fn := info.Defs[fd.Name].(*types.Func)
			if _, ok := module[fn]; ok {
				continue
			}
			params := fn.Signature().Params()
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				i, ok := decodes(callee(call))
				if !ok || i >= len(call.Args) {
					return true
				}
				id, _ := ast.Unparen(call.Args[i]).(*ast.Ident)
				for j := 0; id != nil && j < params.Len(); j++ {
					if p := params.At(j); info.Uses[id] == p && types.IsInterface(p.Type()) {
						module[fn], grew = j, true
					}
				}
				return true
			})
		}
	}

	read := map[*types.Var]token.Pos{}
	written := map[*types.Var]bool{}
	decoded := map[types.Type]bool{}
	var decode func(t types.Type)
	decode = func(t types.Type) {
		if decoded[t] {
			return
		}
		decoded[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			decode(u.Elem())
		case *types.Slice:
			decode(u.Elem())
		case *types.Array:
			decode(u.Elem())
		case *types.Map:
			decode(u.Key())
			decode(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				written[u.Field(i).Origin()] = true
				decode(u.Field(i).Type())
			}
		}
	}
	chain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v := field(info.Uses[x.Sel]); v != nil {
					written[v] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	for _, d := range decls {
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if v := field(info.Uses[n]); v != nil && v.Exported() {
					if _, ok := read[v]; !ok {
						read[v] = n.Pos()
					}
				}
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				if st, ok := t.Underlying().(*types.Struct); ok {
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if v := field(info.Uses[kv.Key.(*ast.Ident)]); v != nil {
								written[v] = true
							}
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					chain(e)
				}
			case *ast.IncDecStmt:
				chain(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					chain(n.X)
				}
			case *ast.CallExpr:
				if i, ok := decodes(callee(n)); ok && i < len(n.Args) {
					if t := info.Types[n.Args[i]].Type; t != nil && !types.IsInterface(t) {
						decode(t)
					}
				}
			}
			return true
		})
	}

	// A field is named by the struct that declares it: a package-level
	// type, then the path of fields down any anonymous struct inside it.
	names := map[*types.Var]string{}
	var name func(prefix string, t types.Type)
	name = func(prefix string, t types.Type) {
		st, ok := t.(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			names[f] = prefix + "." + f.Name()
			name(prefix+"."+f.Name(), f.Type())
		}
	}
	for path, pkg := range m.checked {
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
				name(path+"."+n, tn.Type().Underlying())
			}
		}
	}
	var out []unwrittenField
	for v, pos := range read {
		if !written[v] {
			id, ok := names[v]
			if !ok {
				id = v.Pkg().Path() + ".(struct)." + v.Name()
			}
			out = append(out, unwrittenField{id, pos})
		}
	}
	return out
}
