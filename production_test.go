package repro

// Guard test: every function and package-level variable declared in
// internal/ must have a use in the module's non-test code (cmd/,
// examples/, internal/). A checker or fixture that only tests need lives
// in a _test.go file of its package, so the production packages compile
// only what a program can run.

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
// program calls but that stay in the production packages, keyed
// "importpath.Func" or "importpath.Type.Method", each with its reason.
// No package-level variable is allowlisted.
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
	seen := map[string]bool{}
	for _, f := range prog.unusedDecls("internal") {
		seen[f.key] = true
		if _, ok := productionOnlyAllowlist[f.key]; !ok {
			t.Errorf("%s:%d: %s has no non-test use; delete it, or move it into a _test.go file", f.file, f.line, f.key)
		}
	}
	for key := range productionOnlyAllowlist {
		if !seen[key] {
			t.Errorf("allowlisted %s is called by non-test code or no longer exists; drop it from the allowlist", key)
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

type unusedDecl struct {
	key  string
	file string
	line int
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
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
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

// unusedDecls lists every function, method and package-level variable
// declared under dir (relative to the module root) that no non-test code
// of the module refers to; a function's references inside its own body
// do not count. A method counts as called when it implements a method of
// an interface that is called, or of any interface declared outside the
// module (the standard library calls String, Error, ServeHTTP and their
// kind through interfaces).
func (p *moduleProgram) unusedDecls(dir string) []unusedDecl {
	used := map[*types.Func]bool{}
	usedVars := map[*types.Var]bool{}
	ifaces := map[*types.Interface]bool{}
	for _, mp := range p.order {
		// A reference inside a function's own body is no caller.
		self := func(pos token.Pos, obj *types.Func) bool {
			return obj.Pkg() == mp.types && obj.Scope() != nil && obj.Scope().Contains(pos)
		}
		mark := func(pos token.Pos, obj types.Object) {
			switch o := obj.(type) {
			case *types.Func:
				if f := o.Origin(); !self(pos, f) {
					used[f] = true
				}
			case *types.Var:
				usedVars[o] = true
			}
		}
		for id, obj := range mp.info.Uses {
			mark(id.Pos(), obj)
		}
		for sel, s := range mp.info.Selections {
			mark(sel.Sel.Pos(), s.Obj())
		}
		for _, tv := range mp.info.Types {
			if tv.Type != nil {
				if it, ok := tv.Type.Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
	}
	external := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	seenPkg := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		inModule := p.pkgs[pkg.Path()] != nil
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces[it] = true
				if !inModule {
					external[it] = true
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
	implementsUsed := func(fn *types.Func) bool {
		named := recvNamed(fn)
		if named == nil {
			return false
		}
		for it := range ifaces {
			var m *types.Func
			for i := 0; i < it.NumMethods() && m == nil; i++ {
				if it.Method(i).Name() == fn.Name() {
					m = it.Method(i)
				}
			}
			if m == nil || !(external[it] || used[m]) {
				continue
			}
			// Implements cannot check an uninstantiated generic type, so
			// its methods are matched by name alone.
			generic := named.TypeParams().Len() > 0
			if generic || types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}
	prefix := filepath.Join(p.root, dir) + string(filepath.Separator)
	var out []unusedDecl
	for _, mp := range p.order {
		if !strings.HasPrefix(mp.dir+string(filepath.Separator), prefix) {
			continue
		}
		add := func(key string, pos token.Pos) {
			at := p.fset.Position(pos)
			rel, _ := filepath.Rel(p.root, at.Filename)
			out = append(out, unusedDecl{key: key, file: filepath.ToSlash(rel), line: at.Line})
		}
		for _, f := range mp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "_" || d.Name.Name == "init" {
						continue
					}
					fn := mp.info.Defs[d.Name].(*types.Func)
					if used[fn] || implementsUsed(fn) {
						continue
					}
					key := mp.path + "." + fn.Name()
					if named := recvNamed(fn); named != nil {
						key = mp.path + "." + named.Obj().Name() + "." + fn.Name()
					}
					add(key, d.Pos())
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, name := range spec.(*ast.ValueSpec).Names {
							if v, ok := mp.info.Defs[name].(*types.Var); ok && name.Name != "_" && !usedVars[v] {
								add(mp.path+"."+name.Name, name.Pos())
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
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
