package repro

// Guard test: every function and package-level variable declared in
// internal/ must be reachable from a program of the module (cmd/,
// examples/), walking calls and references from main and init functions,
// blank package-level initialisers, methods the standard library calls
// through its interfaces, and the allowlist. A checker or fixture that
// only tests need lives in a _test.go file of its package, so the
// production packages compile only what a program can run.

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// productionOnlyAllowlist names the functions in internal/ that no
// program reaches but that stay in the production packages, keyed
// "importpath.Func" or "importpath.Type.Method", each with its reason.
// They are roots of the walk, so what they call stays with them. No
// package-level variable is allowlisted.
var productionOnlyAllowlist = map[string]string{
	"repro/internal/topo.Cluster.DiscoverConnectivity":      "§V-B connectivity discovery on a lossless channel",
	"repro/internal/topo.Cluster.DiscoverConnectivityLossy": "§V-B connectivity discovery; docs/PROTOCOL.md §3 step 2 cites it",
	"repro/internal/routing.EncodeSourceRoute":              "§V-C source-route headers; docs/PROTOCOL.md §3 step 5 cites it",
	"repro/internal/routing.NextHopFromHeader":              "§V-C: how a relay forwards by a source-route header",
	"repro/internal/routing.DependentTable":                 "§V-C dependent tables; docs/PROTOCOL.md §3 step 5 cites it",
	"repro/internal/cluster.ReplayCycleSchedules":           "whole-cycle companion of ReplaySchedule, which docs/PROTOCOL.md §4 cites",
	"repro/internal/core.X1MHPFromTSRF":                     "Lemma 1 reduction from TSRF to X1MHP (DESIGN.md §1)",
	"repro/internal/core.X1MHP.PacketsPerSensor":            "Lemma 1 reduction: the X1MHP instance's demand vector",
	"repro/internal/trace.ReadCSV":                          "the CSV trace round trip DESIGN.md §7 documents",
	"repro/internal/dist.NewLocalTransport":                 "in-process worker fabric for seeded determinism and fault-injection runs",
	"repro/internal/dist.LocalTransport.AddWorker":          "in-process worker fabric: a worker joins",
	"repro/internal/dist.LocalTransport.Kill":               "in-process worker fabric: a worker dies",
	"repro/internal/dist.LocalTransport.Delay":              "in-process worker fabric: a worker slows down",
	"repro/internal/radio.NewLogDistance":                   "the benchmark module (bench/trace.go) builds against it",
}

func TestProductionCodeHasProductionCallers(t *testing.T) {
	prog, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	g := prog.callGraph()
	byKey := map[string]types.Object{}
	for _, d := range g.decls {
		byKey[d.key] = d.obj
	}
	programs := g.reach(nil)
	var allowed []types.Object
	for key := range productionOnlyAllowlist {
		switch obj, ok := byKey[key]; {
		case !ok:
			t.Errorf("allowlisted %s no longer exists; drop it from the allowlist", key)
		case programs[obj]:
			t.Errorf("allowlisted %s is reachable from a program; drop it from the allowlist", key)
		default:
			allowed = append(allowed, obj)
		}
	}
	reached := g.reach(allowed)
	for _, d := range g.decls {
		if strings.HasPrefix(d.file, "internal/") && !reached[d.obj] {
			t.Errorf("%s:%d: %s is reachable from no program; delete it, or move it into a _test.go file", d.file, d.line, d.key)
		}
	}
}

// moduleProgram is every non-test package of one module, type-checked
// from source with the standard library imported from GOROOT sources.
type moduleProgram struct {
	root, module string
	fset         *token.FileSet
	std          types.ImporterFrom
	pkgs         map[string]*modulePackage // by import path
	order        []*modulePackage          // in load order
}

type modulePackage struct {
	path, dir string
	files     []*ast.File
	types     *types.Package
	info      *types.Info
}

// decl is one function, method or package-level variable of the module.
type decl struct {
	obj  types.Object // *types.Func or *types.Var
	key  string       // "importpath.Name" or "importpath.Type.Method"
	file string       // relative to the module root
	line int
}

// callGraph records, for every declaration of the module's non-test
// code, the objects its source refers to.
type callGraph struct {
	decls []decl
	refs  map[types.Object][]types.Object
	// roots are the references that run whatever a program does: the
	// bodies of main and init functions, the initialisers of blank (_)
	// package-level variables, and every method that implements an
	// interface declared outside the module (the standard library calls
	// String, Error, ServeHTTP and their kind through interfaces).
	roots []types.Object
	// methods indexes the module's concrete methods by name, for calls
	// through a module interface.
	methods map[string][]*types.Func
}

func loadModule(root string) (*moduleProgram, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, errors.New("go.mod names no module")
	}
	fset := token.NewFileSet()
	p := &moduleProgram{
		root: root, module: module, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*modulePackage{},
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module, such as bench/
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := p.load(path); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			return nil, err
		}
	}
	return p, nil
}

func (p *moduleProgram) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, p.root, 0)
}

func (p *moduleProgram) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == p.module || strings.HasPrefix(path, p.module+"/") {
		mp, err := p.load(path)
		if err != nil {
			return nil, err
		}
		return mp.types, nil
	}
	return p.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks the non-test files of one module package,
// loading its module imports first.
func (p *moduleProgram) load(path string) (*modulePackage, error) {
	if mp, ok := p.pkgs[path]; ok {
		if mp.types == nil {
			return nil, errors.New("import cycle through " + path)
		}
		return mp, nil
	}
	dir := filepath.Join(p.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, p.module), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	if len(bp.GoFiles) == 0 {
		return nil, &build.NoGoError{Dir: dir}
	}
	mp := &modulePackage{path: path, dir: dir}
	p.pkgs[path] = mp
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		mp.files = append(mp.files, f)
	}
	mp.info = &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: p}
	tp, err := conf.Check(path, p.fset, mp.files, mp.info)
	if err != nil {
		delete(p.pkgs, path)
		return nil, err
	}
	mp.types = tp
	p.order = append(p.order, mp)
	return mp, nil
}

// callGraph builds the reference graph of the module's non-test code.
// A function's edges are every object its declaration names (a method
// value or a func literal counts as a call); a package-level variable's
// edges are the objects its initialiser names.
func (p *moduleProgram) callGraph() *callGraph {
	g := &callGraph{refs: map[types.Object][]types.Object{}, methods: map[string][]*types.Func{}}
	external := map[string][]*types.Interface{"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}}
	seenPkg := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		if p.pkgs[pkg.Path()] == nil {
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						external[it.Method(i).Name()] = append(external[it.Method(i).Name()], it)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, mp := range p.order {
		walk(mp.types)
	}
	for _, mp := range p.order {
		uses := func(n ast.Node) []types.Object {
			var out []types.Object
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && mp.info.Uses[id] != nil {
					obj := mp.info.Uses[id]
					if f, ok := obj.(*types.Func); ok {
						obj = f.Origin()
					}
					out = append(out, obj)
				}
				return true
			})
			return out
		}
		add := func(obj types.Object, key string, pos token.Pos) {
			at := p.fset.Position(pos)
			rel, _ := filepath.Rel(p.root, at.Filename)
			g.decls = append(g.decls, decl{obj: obj, key: key, file: filepath.ToSlash(rel), line: at.Line})
		}
		for _, f := range mp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := mp.info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					refs := uses(d)
					named := recvNamed(fn)
					switch {
					case named == nil && (fn.Name() == "init" || fn.Name() == "main" && mp.types.Name() == "main"):
						g.roots = append(g.roots, refs...)
						continue
					case named != nil:
						g.methods[fn.Name()] = append(g.methods[fn.Name()], fn)
						for _, it := range external[fn.Name()] {
							if implements(named, it) {
								g.roots = append(g.roots, fn)
								break
							}
						}
					}
					if d.Name.Name == "_" {
						continue
					}
					g.refs[fn] = refs
					key := mp.path + "." + fn.Name()
					if named != nil {
						key = mp.path + "." + named.Obj().Name() + "." + fn.Name()
					}
					add(fn, key, d.Pos())
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs := spec.(*ast.ValueSpec)
						var refs []types.Object
						for _, v := range vs.Values {
							refs = append(refs, uses(v)...)
						}
						for _, name := range vs.Names {
							if name.Name == "_" {
								g.roots = append(g.roots, refs...)
								continue
							}
							if v, ok := mp.info.Defs[name].(*types.Var); ok {
								g.refs[v] = refs
								add(v, mp.path+"."+name.Name, name.Pos())
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(g.decls, func(i, j int) bool {
		if g.decls[i].file != g.decls[j].file {
			return g.decls[i].file < g.decls[j].file
		}
		return g.decls[i].line < g.decls[j].line
	})
	return g
}

// reach walks the graph from its roots plus extra and returns every
// declaration it reaches. A call through a module interface method
// reaches every module method of that name whose type implements the
// interface.
func (g *callGraph) reach(extra []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	called := map[*types.Func]bool{} // interface methods
	queue := append(append([]types.Object{}, g.roots...), extra...)
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if it := interfaceOf(obj); it != nil {
			if fn := obj.(*types.Func); !called[fn] {
				called[fn] = true
				for _, m := range g.methods[fn.Name()] {
					if implements(recvNamed(m), it) {
						queue = append(queue, m)
					}
				}
			}
			continue
		}
		refs, ok := g.refs[obj]
		if !ok || reached[obj] {
			continue
		}
		reached[obj] = true
		queue = append(queue, refs...)
	}
	return reached
}

// interfaceOf returns the interface that declares obj when obj is an
// interface method, and nil otherwise.
func interfaceOf(obj types.Object) *types.Interface {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	it, _ := recv.Type().Underlying().(*types.Interface)
	return it
}

// implements reports whether named or its pointer implements it.
// Implements cannot check an uninstantiated generic type, so its methods
// are matched by name alone.
func implements(named *types.Named, it *types.Interface) bool {
	return named.TypeParams().Len() > 0 || types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
}

// recvNamed returns the named type of fn's receiver, or nil for a plain
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
