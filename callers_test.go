package veil

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryInternalFunctionHasACaller fails on any function or method in
// internal/ that no shipped program reaches. The roots are every declaration
// of the commands, the examples and the benchmark module, every init function
// and package-level var initializer, and the modelled Linux ABI (see
// unreached). A function that only tests call is dead code with a test suite;
// a package nobody reaches shows up as all of its functions.
func TestEveryInternalFunctionHasACaller(t *testing.T) {
	dead, err := unreached(".", "veil")
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) > 0 {
		t.Fatalf("no command, example or the benchmark reaches these functions, even indirectly; give each a caller or delete it:\n  %s",
			strings.Join(dead, "\n  "))
	}
}

// TestCallerGateFlagsAnUncalledFunction runs the gate over a fixture module
// whose one command calls lib.Used but not lib.Unused.
func TestCallerGateFlagsAnUncalledFunction(t *testing.T) {
	dead, err := unreached(filepath.Join("testdata", "callers"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join("internal", "lib", "lib.go") + ":9 Unused"}
	if strings.Join(dead, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unreached = %q, want %q", dead, want)
	}
}

// unreached type-checks every non-test Go file of the module at root (import
// path module; the benchmark module lives at module+"/benchmark") and returns
// "file:line name" for each function and method under internal/ that no root
// reaches. Roots:
//   - every declaration in cmd/*, examples/* and benchmark;
//   - every init function and package-level var initializer, which covers
//     table-dispatched handlers;
//   - the modelled Linux ABI: each (*kernel.Kernel) method whose body calls
//     k.enter with a Sys* constant, kept for the kaudit ruleset and the
//     kernel lifecycle even where no shipped workload makes that syscall.
//
// A method of a reached type is live when the type implements a reached
// interface or one of the standard library's, with the method in it.
func unreached(root, module string) ([]string, error) {
	l, rootDirs, internal, err := loadModule(root, module)
	if err != nil {
		return nil, err
	}
	w := &walker{
		loader:  l,
		reached: map[types.Object]bool{},
		decls:   map[types.Object]ast.Node{},
		owner:   map[ast.Node]*srcPkg{},
	}
	for _, p := range l.pkgs {
		w.index(p)
	}
	for _, dir := range rootDirs {
		p := l.pkgs[l.importPath(dir)]
		for _, f := range p.files {
			w.uses(p, f)
		}
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if (d.Recv == nil && d.Name.Name == "init") || isABIEntry(p, d) {
						w.mark(p.info.Defs[d.Name])
						w.uses(p, d)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						w.uses(p, d)
					}
				}
			}
		}
	}
	w.run()

	var dead []string
	for _, dir := range internal {
		p := l.pkgs[l.importPath(dir)]
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				if obj := p.info.Defs[fd.Name]; !w.reached[obj] {
					pos := l.fset.Position(fd.Pos())
					rel, err := filepath.Rel(root, pos.Filename)
					if err != nil {
						return nil, err
					}
					dead = append(dead, fmt.Sprintf("%s:%d %s", rel, pos.Line, funcName(fd)))
				}
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// TestEveryWireOpIsSent fails on any Op* constant of internal/core's
// protocol.go that no shipped non-test file outside internal/services
// names: an op only a service handles is a request nothing on the OS side
// sends, which the function gate cannot see because the handler's switch
// is reachable.
func TestEveryWireOpIsSent(t *testing.T) {
	unsent, err := unsentOps(".", "veil")
	if err != nil {
		t.Fatal(err)
	}
	if len(unsent) > 0 {
		t.Fatalf("no shipped code outside internal/services sends these ops; give each a sender or retire it:\n  %s",
			strings.Join(unsent, "\n  "))
	}
}

// TestOpGateFlagsAnUnsentOp runs the op gate over the fixture module, whose
// command sends core.OpSent and whose one service also handles OpUnsent.
func TestOpGateFlagsAnUnsentOp(t *testing.T) {
	unsent, err := unsentOps(filepath.Join("testdata", "callers"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join("internal", "core", "protocol.go") + ":8 OpUnsent"}
	if strings.Join(unsent, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unsent = %q, want %q", unsent, want)
	}
}

// unsentOps returns "file:line name" for each Op* constant declared in
// internal/core/protocol.go of the module at root that no non-test file
// outside internal/services refers to.
func unsentOps(root, module string) ([]string, error) {
	l, _, _, err := loadModule(root, module)
	if err != nil {
		return nil, err
	}
	core := l.pkgs[module+"/internal/core"]
	if core == nil {
		return nil, fmt.Errorf("no package %s/internal/core", module)
	}
	ops := map[types.Object]bool{} // op → referenced
	for ident, obj := range core.info.Defs {
		if c, ok := obj.(*types.Const); ok && c.Parent() == c.Pkg().Scope() && strings.HasPrefix(c.Name(), "Op") &&
			filepath.Base(l.fset.Position(ident.Pos()).Filename) == "protocol.go" {
			ops[obj] = false
		}
	}
	services := module + "/internal/services"
	for path, p := range l.pkgs {
		if path == services || strings.HasPrefix(path, services+"/") {
			continue
		}
		for _, obj := range p.info.Uses {
			if _, ok := ops[obj]; ok {
				ops[obj] = true
			}
		}
	}
	var unsent []string
	for obj, sent := range ops {
		if sent {
			continue
		}
		pos := l.fset.Position(obj.Pos())
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			return nil, err
		}
		unsent = append(unsent, fmt.Sprintf("%s:%d %s", rel, pos.Line, obj.Name()))
	}
	sort.Strings(unsent)
	return unsent, nil
}

// loadModule type-checks every non-test package of the module at root: the
// commands, examples and benchmark (returned as rootDirs) and every
// package under internal/ (returned as internal).
func loadModule(root, module string) (l *loader, rootDirs, internal []string, err error) {
	l = &loader{
		root:   root,
		module: module,
		fset:   token.NewFileSet(),
		pkgs:   map[string]*srcPkg{},
		std:    importer.Default(),
	}
	for _, pattern := range []string{"cmd/*", "examples/*", "benchmark"} {
		dirs, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			return nil, nil, nil, err
		}
		rootDirs = append(rootDirs, dirs...)
	}
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if names, err := goFiles(path); err != nil || len(names) > 0 {
			internal = append(internal, path)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for _, dir := range append(rootDirs, internal...) {
		if _, err := l.load(l.importPath(dir)); err != nil {
			return nil, nil, nil, err
		}
	}
	return l, rootDirs, internal, nil
}

// srcPkg is one package type-checked from its non-test source files.
type srcPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's packages from source, on demand, and the
// standard library from its export data.
type loader struct {
	root, module string
	fset         *token.FileSet
	pkgs         map[string]*srcPkg
	std          types.Importer
}

func (l *loader) importPath(dir string) string {
	rel, _ := filepath.Rel(l.root, dir)
	return l.module + "/" + filepath.ToSlash(rel)
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(path string) (*srcPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	p := &srcPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// goFiles lists the non-test Go files in dir that build on this platform.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	return names, nil
}

// walker marks every object reachable from the roots it is given.
type walker struct {
	*loader
	reached map[types.Object]bool
	decls   map[types.Object]ast.Node // declaration to walk once reached
	owner   map[ast.Node]*srcPkg
	queue   []types.Object
	named   []*types.TypeName // reached module types, for interface methods
	ifaces  []*types.Interface
}

// index records the declaration of each package-level function, method, type
// and constant of p.
func (w *walker) index(p *srcPkg) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				w.decls[p.info.Defs[d.Name]] = d
				w.owner[d] = p
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						w.decls[p.info.Defs[s.Name]] = s
						w.owner[s] = p
					case *ast.ValueSpec:
						if d.Tok == token.CONST {
							for _, n := range s.Names {
								w.decls[p.info.Defs[n]] = s
							}
							w.owner[s] = p
						}
					}
				}
			}
		}
	}
}

// mark reaches obj, queueing its declaration for a walk.
func (w *walker) mark(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if obj == nil || w.reached[obj] {
		return
	}
	w.reached[obj] = true
	if tn, ok := obj.(*types.TypeName); ok && w.decls[obj] != nil {
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			w.ifaces = append(w.ifaces, iface)
		} else {
			w.named = append(w.named, tn)
		}
	}
	if w.decls[obj] != nil {
		w.queue = append(w.queue, obj)
	}
}

// uses marks every object that node, from package p, names.
func (w *walker) uses(p *srcPkg, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			w.mark(p.info.Uses[n])
			if v, ok := p.info.Defs[n].(*types.Var); ok && v.Embedded() {
				w.markType(v.Type())
			}
		case *ast.InterfaceType:
			if iface, ok := p.info.Types[n].Type.(*types.Interface); ok {
				w.ifaces = append(w.ifaces, iface)
			}
		}
		return true
	})
}

func (w *walker) markType(t types.Type) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		w.mark(named.Obj())
	}
}

// run walks queued declarations until nothing new is reached, then adds the
// methods of reached types that implement a reached or standard interface,
// and repeats until that adds nothing either.
func (w *walker) run() {
	std := w.stdInterfaces()
	done := map[[2]any]bool{}
	for {
		for len(w.queue) > 0 {
			obj := w.queue[len(w.queue)-1]
			w.queue = w.queue[:len(w.queue)-1]
			d := w.decls[obj]
			w.uses(w.owner[d], d)
		}
		for _, tn := range w.named {
			for _, iface := range append(w.ifaces[:len(w.ifaces):len(w.ifaces)], std...) {
				key := [2]any{tn, iface}
				if done[key] || iface.NumMethods() == 0 {
					continue
				}
				done[key] = true
				ptr := types.NewPointer(tn.Type())
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), iface.Method(i).Name())
					w.mark(m)
				}
			}
		}
		if len(w.queue) == 0 {
			return
		}
	}
}

// stdInterfaces lists error and every exported interface of the standard
// library packages the module imports, directly or not: a value converted to
// any may still have its methods called through one of them (fmt.Stringer).
func (w *walker) stdInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
		if strings.HasPrefix(pkg.Path(), w.module) {
			return
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				out = append(out, iface)
			}
		}
	}
	for _, p := range w.pkgs {
		visit(p.types)
	}
	return out
}

// isABIEntry reports whether d is a (*Kernel) method of the module's kernel
// package that enters a modelled syscall: its body calls k.enter with a Sys*
// constant.
func isABIEntry(p *srcPkg, d *ast.FuncDecl) bool {
	if d.Recv == nil || !strings.HasSuffix(p.types.Path(), "/internal/kernel") {
		return false
	}
	if star, ok := d.Recv.List[0].Type.(*ast.StarExpr); !ok || types.ExprString(star.X) != "Kernel" {
		return false
	}
	found := false
	ast.Inspect(d.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "enter" {
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok {
					if c, ok := p.info.Uses[id].(*types.Const); ok && strings.HasPrefix(c.Name(), "Sys") {
						found = true
					}
				}
			}
		}
		return true
	})
	return found
}

// funcName is "Name" for a function and "Recv.Name" for a method.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	return types.ExprString(t) + "." + d.Name.Name
}
