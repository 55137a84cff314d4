package sbqa

import (
	"bytes"
	"encoding/json"
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
	"testing"
)

// assertedOnly lists what is alive only through an interface-satisfaction
// assert (`var _ X = …`) outside a `main` package: a library's blank
// declarations reach nothing below, so an interface or type whose sole
// non-test mention is such an assert must be named here, with the reason the assert is worth keeping. Nothing else
// belongs in this list — unreached code is deleted, not excused.
var assertedOnly = map[string]string{}

// TestNoDeadSurface is the ratchet behind the dead-surface deletions: every
// package-level func, type, var and const of the root module must be
// reachable from a root — any declaration of a `main` package (binaries and
// examples) or anything the bench/ module names. The facade is no root: an
// alias in sbqa.go is alive only while one of those imports it.
// Reachability is type-checked (go/types over the non-test files
// `go list` reports); a method lives with its receiver type; test files
// reach nothing, so what only a test uses is dead.
func TestNoDeadSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (~3 s)")
	}
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Name, Dir, Export string
		GoFiles                       []string
		Standard                      bool
	}
	var module []listed // dependency order: go list -deps prints a package after its imports
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			module = append(module, p)
		}
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	files := map[string][]*ast.File{}
	for _, p := range module {
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files[p.ImportPath] = append(files[p.ImportPath], f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files[p.ImportPath], info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
	}

	// owner maps an object to the package-level declaration it lives with:
	// itself, or for a method its receiver's type name; nil when the object
	// is not package-level in this module (locals, fields, std, builtins).
	owner := func(obj types.Object) types.Object {
		if obj == nil || obj.Pkg() == nil || checked[obj.Pkg().Path()] != obj.Pkg() {
			return nil
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if ptr, ok := rt.(*types.Pointer); ok {
					rt = ptr.Elem()
				}
				if named, ok := rt.(*types.Named); ok {
					return named.Obj()
				}
				return nil // interface method: reached with the interface
			}
		}
		if obj.Parent() != obj.Pkg().Scope() {
			return nil
		}
		return obj
	}

	uses := map[types.Object][]types.Object{} // declaration → what its source mentions
	var roots []types.Object
	mentions := func(node ast.Node) (out []types.Object) {
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if to := owner(info.Uses[id]); to != nil {
					out = append(out, to)
				}
			}
			return true
		})
		return out
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
					to := mentions(spec.node)
					if fd, ok := spec.node.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "init" {
						roots = append(roots, to...) // init always runs
						continue
					}
					for _, id := range spec.names {
						o := owner(info.Defs[id])
						switch {
						case o == nil && p.Name == "main":
							// A binary's own `var _ X = …` is one of its
							// declarations: sbqad pins its webhook
							// participants to the optional interfaces the
							// mediator discovers by type assertion.
							roots = append(roots, to...)
						case o == nil:
							// a library's blank declaration reaches nothing
						default:
							uses[o] = append(uses[o], to...)
							if p.Name == "main" {
								roots = append(roots, o)
							}
						}
					}
				}
			}
		}
	}

	// The bench/ module reaches the root module only through qualified
	// names, so its roots are read off the syntax: pkg.Name for every
	// import of an sbqa package.
	err = filepath.WalkDir("bench", func(path string, d fs.DirEntry, err error) error {
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
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	live := map[types.Object]bool{}
	for len(roots) > 0 {
		o := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if live[o] {
			continue
		}
		live[o] = true
		roots = append(roots, uses[o]...)
	}

	var dead []string
	excused := map[string]bool{}
	for _, p := range module {
		scope := checked[p.ImportPath].Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			if live[o] {
				continue
			}
			id := p.ImportPath + "." + name
			if _, ok := assertedOnly[id]; ok {
				excused[id] = true
				continue
			}
			dead = append(dead, id+"  ("+fset.Position(o.Pos()).String()+")")
		}
	}
	for id := range assertedOnly {
		if !excused[id] {
			dead = append(dead, id+"  (in assertedOnly, but reached or gone: drop the entry)")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d package-level declarations no binary or bench/ probe reaches — delete them with the tests that exercised only them:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
