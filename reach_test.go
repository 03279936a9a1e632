//go:build reachability

package piggyback

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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
