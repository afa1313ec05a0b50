package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// referenceAllowlist names the functions and methods the reference scan
// keeps although no non-test code calls them, each with its reason. A key
// is "pkgpath.Func" or "pkgpath.Type.Method".
var referenceAllowlist = map[string]string{
	"repro/internal/soak.WindowDigest":                "test hook: the replay tests compare window digests",
	"repro/internal/workloads/bzip2.bwtSort":          "test oracle: the radix BWT is checked against it",
	"repro/internal/workloads/streamstats.RunSerial":  "test oracle: the serial elision the parallel run must equal",
	"repro/internal/workloads/bzip2.DecompressStream": "test oracle: decodes the compressors' streams in the round-trip tests",
	"repro/internal/workloads/bzip2.huffHeap.Less":    "sort.Interface, called by container/heap",
	"repro/internal/workloads/bzip2.huffHeap.Swap":    "sort.Interface, called by container/heap",
	"repro/internal/workloads/bzip2.huffHeap.Push":    "heap.Interface, called by container/heap",
	"repro/internal/workloads/bzip2.huffHeap.Pop":     "heap.Interface, called by container/heap",
}

// TestEveryInternalFunctionIsReferenced type-checks every non-test package
// of the module and fails for each function or method that no non-test
// code uses outside its own body. It scans declarations in internal/...,
// cmd/..., examples/... and the unexported ones of swan; uses are
// counted from every non-test file, benchmark/ included. Exported methods
// of the types swan re-exports by alias are public API, and a method that
// satisfies an interface whose method some non-test code calls is live.
func TestEveryInternalFunctionIsReferenced(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		if _, ok := files[p]; !ok {
			return std.Import(p)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p, fset, files[p], info)
		checked[p] = pkg
		return pkg, err
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}

	// Public API: exported methods of the types swan re-exports by alias.
	public := map[*types.TypeName]bool{}
	swan := checked[module+"/swan"].Scope()
	for _, name := range swan.Names() {
		if tn, ok := swan.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[named.Origin().Obj()] = true
			}
		}
	}

	// Candidate declarations, with the span of each body.
	type decl struct {
		fn       *types.Func
		pos, end token.Pos
		used     bool
	}
	var decls []*decl
	byFunc := map[*types.Func]*decl{}
	for _, p := range paths {
		rel := strings.TrimPrefix(p, module+"/")
		inScope := strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/") ||
			strings.HasPrefix(rel, "examples/") || rel == "swan"
		if !inScope {
			continue
		}
		for _, f := range files[p] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				if rel == "swan" && fn.Exported() {
					continue
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && fn.Exported() {
					if public[receiverName(recv.Type())] {
						continue
					}
				}
				dc := &decl{fn: fn, pos: fd.Pos(), end: fd.End()}
				decls = append(decls, dc)
				byFunc[fn] = dc
			}
		}
	}

	// Count every use that lies outside the used function's own body, and
	// collect the interface methods non-test code calls.
	ifaceCalls := map[*types.Func]bool{}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if _, ok := recv.Type().Underlying().(*types.Interface); ok {
				ifaceCalls[fn] = true
				continue
			}
		}
		if dc := byFunc[fn]; dc != nil && (id.Pos() < dc.pos || id.Pos() >= dc.end) {
			dc.used = true
		}
	}

	// Interface dispatch: a method is live when some non-test code calls
	// the same method through an interface whose every method its type
	// has. Methods match by name, not signature, so an interface that a
	// generic type satisfies only once instantiated still counts.
	for _, dc := range decls {
		recv := dc.fn.Type().(*types.Signature).Recv()
		if dc.used || recv == nil {
			continue
		}
		t := recv.Type()
		if _, ok := t.(*types.Pointer); !ok {
			t = types.NewPointer(t)
		}
		for m := range ifaceCalls {
			if m.Id() == dc.fn.Id() && hasMethods(t, m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
				dc.used = true
				break
			}
		}
	}

	// Every allowlist line must still name a declaration without uses,
	// so the list cannot outlive what it excuses.
	var unused []string
	seen := map[string]bool{}
	for _, dc := range decls {
		key := funcKey(dc.fn)
		seen[key] = true
		if dc.used {
			if _, ok := referenceAllowlist[key]; ok {
				t.Errorf("%s is allowlisted but has non-test uses: drop its allowlist line", key)
			}
			continue
		}
		if _, ok := referenceAllowlist[key]; !ok {
			unused = append(unused, fset.Position(dc.pos).String()+": "+key)
		}
	}
	for key := range referenceAllowlist {
		if !seen[key] {
			t.Errorf("allowlist line %s names no scanned declaration", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("no non-test use: %s", u)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// hasMethods reports whether t has a method of each name iface declares.
func hasMethods(t types.Type, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}

// receiverName is the declared type a method receiver names.
func receiverName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// funcKey is "pkgpath.Func" or "pkgpath.Type.Method".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		key += receiverName(recv.Type()).Name() + "."
	}
	return key + fn.Name()
}
