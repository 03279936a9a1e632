//go:build reachability

package piggyback

import (
	"fmt"
	"go/ast"
	gobuild "go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestUnlinkedFunctionsMatchAllowlist lists every function declared in a
// non-test file under internal/ that no product binary links, and fails
// unless that list is exactly testdata/unlinked.txt. The binaries are
// cmd/*, bench, and a generated program that references every function
// and method the facade (this package) declares, all built without
// inlining so that no call hides in its caller. A function on the list
// is reached only by tests, or by nothing; each allowlist line gives the
// reason it stays. Run it with
//
//	go test -tags reachability -count=1 -run TestUnlinkedFunctionsMatchAllowlist .
func TestUnlinkedFunctionsMatchAllowlist(t *testing.T) {
	out := t.TempDir()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, _ := filepath.Glob("cmd/*")
	pkgs = append(pkgs, "bench")
	bins := []string{facadeRoot(t, out, root)}
	for _, p := range pkgs {
		bin := filepath.Join(out, filepath.Base(p))
		build(t, root, bin, "./"+p)
		bins = append(bins, bin)
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		nm, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		for _, line := range strings.Split(string(nm), "\n") {
			if f := strings.Fields(line); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[linkerName(f[2])] = true
			}
		}
	}

	var unlinked []string
	for _, fn := range declaredFuncs(t, "internal") {
		if !linked["piggyback/internal/"+fn] {
			unlinked = append(unlinked, fn)
		}
	}
	t.Logf("%d functions under internal/ linked by no product binary:\n%s", len(unlinked), strings.Join(unlinked, "\n"))
	allowed := readAllowlist(t, "testdata/unlinked.txt")
	for _, fn := range unlinked {
		if !allowed[fn] {
			t.Errorf("%s is linked by no product binary: delete it, or add it to testdata/unlinked.txt with the reason it stays", fn)
		}
		delete(allowed, fn)
	}
	for fn := range allowed {
		t.Errorf("testdata/unlinked.txt lists %s, which is linked or no longer declared: drop its line", fn)
	}
}

// build compiles pkg, from dir, into bin with inlining off.
func build(t *testing.T, dir, bin, pkg string) {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, pkg)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
}

// facadeRoot writes a program that takes the value of every function and
// method declared in the facade's non-test files, builds it in its own
// module with this module replaced by root, and returns the binary.
func facadeRoot(t *testing.T, out, root string) string {
	fset := token.NewFileSet()
	files, _ := filepath.Glob(filepath.Join(root, "*.go"))
	var refs []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				refs = append(refs, "piggyback."+fd.Name.Name)
				continue
			}
			recv, ptr := recvType(fd.Recv.List[0].Type)
			if !ast.IsExported(recv) {
				continue
			}
			if ptr {
				refs = append(refs, fmt.Sprintf("(*piggyback.%s).%s", recv, fd.Name.Name))
			} else {
				refs = append(refs, fmt.Sprintf("piggyback.%s.%s", recv, fd.Name.Name))
			}
		}
	}
	dir := filepath.Join(out, "facaderoot")
	src := "package main\n\nimport \"piggyback\"\n\nvar keep = []any{\n\t" + strings.Join(refs, ",\n\t") + ",\n}\n\nfunc main() { println(len(keep)) }\n"
	mod := fmt.Sprintf("module facaderoot\n\ngo 1.21\n\nrequire piggyback v0.0.0\n\nreplace piggyback => %s\n", root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"main.go": src, "go.mod": mod} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bin := filepath.Join(out, "facaderoot.bin")
	build(t, dir, bin, ".")
	return bin
}

// recvType returns a method receiver's type name, without type
// parameters, and whether the receiver is a pointer.
func recvType(e ast.Expr) (name string, ptr bool) {
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name, ptr
}

// declaredFuncs names every function declared in the non-test files under
// dir as the linker does, relative to the module's internal/ directory:
// graph.KHop, graph.(*Graph).NumNodes, graph.Edge.String. A package's
// init functions are one entry, pkg.init.
func declaredFuncs(t *testing.T, dir string) []string {
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), dir+string(filepath.Separator)))
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch {
			case fd.Recv == nil && fd.Name.Name == "init":
				names = append(names, pkg+".init")
			case fd.Recv == nil:
				names = append(names, pkg+"."+fd.Name.Name)
			default:
				recv, ptr := recvType(fd.Recv.List[0].Type)
				if ptr {
					recv = "(*" + recv + ")"
				}
				names = append(names, pkg+"."+recv+"."+fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

var (
	// typeArgs matches one innermost bracketed type-argument list of a
	// generic instantiation: KHop[go.shape.int], (*Set[...]).Len.
	typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)
	// initN matches the numbered init functions the compiler emits.
	initN = regexp.MustCompile(`\.init\.\d+$`)
)

// linkerName maps a symbol of go tool nm onto the names declaredFuncs
// gives: instantiations lose their type arguments, and every numbered
// init of a package is its pkg.init.
func linkerName(sym string) string {
	for strings.Contains(sym, "[") {
		s := typeArgs.ReplaceAllString(sym, "")
		if s == sym {
			break
		}
		sym = s
	}
	return initN.ReplaceAllString(sym, ".init")
}

// readAllowlist reads a set of function names, one a line as
// "name  reason"; blank lines and lines starting with # are skipped, and
// a line without a reason fails the test.
func readAllowlist(t *testing.T, path string) map[string]bool {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for i, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		set[name] = true
	}
	return set
}

// TestExportedOptionsHaveProductCallers lists every exported field of
// every exported struct named Config, *Config, Options, *Options or
// Params declared in a non-test file under internal/ that no product code
// sets, and fails unless that list is exactly testdata/options.txt. A
// field is set by a composite-literal key in the non-test code of cmd/*,
// bench, internal/ or the facade, or by an assignment outside the package
// that declares it, so a package's own zero-means-default handling sets
// nothing. Fields resolve through go/types, so an alias such as the
// facade's OnlineConfig counts for the type it names. Run it with
//
//	go test -tags reachability -count=1 -run TestExportedOptionsHaveProductCallers .
func TestExportedOptionsHaveProductCallers(t *testing.T) {
	fset := token.NewFileSet()
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*checked{}}
	dirs, _ := filepath.Glob("cmd/*")
	dirs = append(dirs, ".", "bench")
	err := filepath.WalkDir("internal", func(path string, e fs.DirEntry, err error) error {
		if err == nil && e.IsDir() {
			dirs = append(dirs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	options := map[*types.Var]string{}
	set := map[*types.Var]bool{}
	for _, dir := range dirs {
		if files, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(files) == 0 {
			continue
		}
		p, err := l.load(strings.TrimSuffix("piggyback/"+filepath.ToSlash(dir), "/."))
		if err != nil {
			t.Fatal(err)
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !optionType.MatchString(name) || !strings.HasPrefix(dir, "internal") {
				continue
			}
			st, _ := tn.Type().Underlying().(*types.Struct)
			for i := 0; st != nil && i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					options[f] = strings.TrimPrefix(p.pkg.Path(), "piggyback/internal/") + "." + name + "." + f.Name()
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					key, _ := n.Key.(*ast.Ident)
					if v, ok := p.info.Uses[key].(*types.Var); ok && v.IsField() {
						set[v] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						sel, _ := lhs.(*ast.SelectorExpr)
						if s := p.info.Selections[sel]; s != nil && s.Obj().Pkg() != p.pkg {
							set[s.Obj().(*types.Var)] = true
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	for f, name := range options {
		if !set[f] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	t.Logf("%d of %d exported option fields set by no product code:\n%s", len(unset), len(options), strings.Join(unset, "\n"))
	allowed := readAllowlist(t, "testdata/options.txt")
	for _, name := range unset {
		if !allowed[name] {
			t.Errorf("%s is set by no product code: unexport it, or add it to testdata/options.txt with the reason it stays", name)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("testdata/options.txt lists %s, which product code sets or no option struct declares: drop its line", name)
	}
}

// optionType matches the exported names of the option structs.
var optionType = regexp.MustCompile(`^([A-Z]\w*)?(Config|Options)$|^Params$`)

// loader type-checks this module's packages from source, each once, so
// that every package sees the same types.Var for a field; the standard
// library comes from std.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checked
}

// checked is one type-checked package: its non-test files and what the
// checker recorded about them.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != "piggyback" && !strings.HasPrefix(path, "piggyback/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load type-checks the module package at import path path.
func (l *loader) load(path string) (*checked, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := gobuild.ImportDir("."+strings.TrimPrefix(path, "piggyback"), 0)
	if err != nil {
		return nil, err
	}
	p := &checked{info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if p.pkg, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}
