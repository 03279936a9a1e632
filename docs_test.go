package piggyback

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"piggyback/internal/shard"
)

// TestDocsNameExistingCommands keeps the docs and CI from naming a binary
// that no longer exists: every `cmd/<name>` and `examples/<name>` in them
// must be a directory of the module. CHANGES.md is history and is not
// scanned.
func TestDocsNameExistingCommands(t *testing.T) {
	ref := regexp.MustCompile(`(?:^|[^A-Za-z0-9_/])(?:\./)?((?:cmd|examples)/[A-Za-z0-9_]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range ref.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(m[1]); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d names %s, which is not a directory of the module", doc, i+1, m[1])
				}
			}
		}
	}
}

// TestDocsNameExistingTests keeps the docs and CI from naming a test that
// no longer exists. In README, DESIGN and the verify SKILL every
// backticked Test…, Benchmark… or Fuzz… name must be a function of the
// module — of the named package when qualified (online.TestX), any
// function with that prefix when followed by * or …, each expansion of
// {a,b}; a deleted one is cited without backticks. There and in CI, every
// alternative of a -run or -bench pattern (but a <placeholder>) must match
// a function of the packages the command names.
func TestDocsNameExistingTests(t *testing.T) {
	funcs := map[string][]string{} // test, benchmark and fuzz functions → their package directories
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err == nil && e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return fs.SkipDir // .git, a benchmark's build cache
		}
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(b, -1) {
			funcs[string(m[1])] = append(funcs[string(m[1])], filepath.Dir(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// exists reports whether a function whose name satisfies ok lives in a
	// directory that satisfies in.
	exists := func(in func(dir string) bool, ok func(name string) bool) bool {
		for name, dirs := range funcs {
			for _, dir := range dirs {
				if ok(name) && in(dir) {
					return true
				}
			}
		}
		return false
	}
	flag := regexp.MustCompile(`-(?:run|bench)[ =]+(?:'([^']*)'|"([^"]*)"|(\S+))`)
	name := regexp.MustCompile(`\b(?:(\w+)\.)?((?:Test|Benchmark|Fuzz)(?:[A-Z0-9_]\w*)?)(\{[^}]*\})?([*…]?)`)
	// check holds one command or code span; names: its bare names too.
	check := func(where, code string, names bool) {
		var dirs []string
		for _, f := range strings.Fields(code) {
			if f == "." || strings.HasPrefix(f, "./") && !strings.HasSuffix(f, "...") {
				dirs = append(dirs, filepath.Clean(f))
			}
		}
		inCommand := func(dir string) bool {
			for _, d := range dirs {
				if d == dir {
					return true
				}
			}
			return len(dirs) == 0
		}
		for _, m := range flag.FindAllStringSubmatch(code, -1) {
			for _, alt := range strings.Split(m[1]+m[2]+m[3], "|") {
				if alt = strings.Split(alt, "/")[0]; alt == "" || alt == "^$" || strings.Contains(alt, "<") {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil || !exists(inCommand, re.MatchString) {
					t.Errorf("%s: pattern %q matches no function in %v (%v)", where, alt, dirs, err)
				}
			}
		}
		if !names {
			return
		}
		for _, m := range name.FindAllStringSubmatch(flag.ReplaceAllString(code, ""), -1) {
			pkg, open := m[1], m[4] != ""
			inPkg := func(dir string) bool {
				return pkg == "" || filepath.Base(dir) == pkg || dir == "." && pkg == "piggyback"
			}
			alts := []string{""}
			if m[3] != "" {
				alts = strings.Split(m[3][1:len(m[3])-1], ",")
			}
			for _, a := range alts {
				want := m[2] + a
				if !exists(inPkg, func(n string) bool { return n == want || open && strings.HasPrefix(n, want) }) {
					t.Errorf("%s names %s, which is no function of the module", where, m[0])
				}
			}
		}
	}
	fence := regexp.MustCompile("(?s)```.*?```")
	span := regexp.MustCompile("`([^`]+)`")
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		lineOf := func(at int) int { return strings.Count(text[:at], "\n") + 1 }
		for _, loc := range fence.FindAllStringIndex(text, -1) {
			for i, line := range strings.Split(text[loc[0]:loc[1]], "\n") {
				check(fmt.Sprintf("%s:%d", doc, lineOf(loc[0])+i), line, true)
			}
		}
		// Blank the fences out, keeping their lines, before the inline spans.
		text = fence.ReplaceAllStringFunc(text, func(f string) string { return strings.Repeat("\n", strings.Count(f, "\n")) })
		for _, loc := range span.FindAllStringSubmatchIndex(text, -1) {
			check(fmt.Sprintf("%s:%d", doc, lineOf(loc[0])), text[loc[2]:loc[3]], true)
		}
	}
	b, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(b), "\n") {
		check(fmt.Sprintf("ci.yml:%d", i+1), line, false)
	}
}

// TestDocsNameExistingConfigFields keeps the docs from citing a knob
// that no longer exists: in README, DESIGN and the verify SKILL every
// backticked online.Config.F, OnlineConfig.F, online.Stats.F,
// OnlineStats.F, solver.Options.F, Options.F or shard.Config.F must be
// a field of that type; a deleted one is cited without backticks.
func TestDocsNameExistingConfigFields(t *testing.T) {
	types := map[string]reflect.Type{
		"online.Config": reflect.TypeOf(OnlineConfig{}), "OnlineConfig": reflect.TypeOf(OnlineConfig{}),
		"online.Stats": reflect.TypeOf(OnlineStats{}), "OnlineStats": reflect.TypeOf(OnlineStats{}),
		"solver.Options": reflect.TypeOf(Options{}), "Options": reflect.TypeOf(Options{}),
		"shard.Config": reflect.TypeOf(shard.Config{}),
	}
	span := regexp.MustCompile("`([^`]+)`")
	ref := regexp.MustCompile(`\b(online\.Config|OnlineConfig|online\.Stats|OnlineStats|solver\.Options|Options|shard\.Config)\.(\w+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, s := range span.FindAllStringSubmatch(line, -1) {
				for _, m := range ref.FindAllStringSubmatch(s[1], -1) {
					if _, ok := types[m[1]].FieldByName(m[2]); !ok {
						t.Errorf("%s:%d names %s, which is no field of %s", doc, i+1, m[0], m[1])
					}
				}
			}
		}
	}
}

// TestDocsNameExistingDeclarations keeps the docs from citing a name that
// no longer exists: in README, DESIGN and the verify SKILL every
// backticked solver.X or fault.X must be a declaration of internal/solver
// or internal/fault, exported or not (solver.finish), and every backticked
// pkg.X with X capitalized, for pkg one of nosy, chitchat, telemetry,
// shard, online, core, incremental, refine and graph, one of internal/pkg
// (lower-case, they are bench metrics: nosy.scale). A method counts by its
// own name. Test and Benchmark names are TestDocsNameExistingTests' to
// check. A deleted name is cited without backticks.
func TestDocsNameExistingDeclarations(t *testing.T) {
	decls := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range []string{"solver", "fault", "nosy", "chitchat", "telemetry", "shard", "online", "core", "incremental", "refine", "graph"} {
		dir := filepath.Join("internal", pkg)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range files {
			if !strings.HasSuffix(fi.Name(), ".go") || strings.HasSuffix(fi.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, fi.Name()), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl: // a method counts too: `graph.CommonInEdges`
					decls[pkg+"."+d.Name.Name] = true
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						switch sp := sp.(type) {
						case *ast.TypeSpec:
							decls[pkg+"."+sp.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								decls[pkg+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	// Code spans may wrap a line, so scan each document whole: fences
	// first, then the inline spans once the fences are blanked out.
	fence := regexp.MustCompile("(?s)```.*?```")
	span := regexp.MustCompile("`[^`]+`")
	ref := regexp.MustCompile(`(?:^|[^\w/.])((?:solver|fault)\.\w+|(?:nosy|chitchat|telemetry|shard|online|core|incremental|refine|graph)\.[A-Z]\w*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		check := func(code []int) {
			for _, m := range ref.FindAllStringSubmatchIndex(text[code[0]:code[1]], -1) {
				name := text[code[0]+m[2] : code[0]+m[3]]
				if _, x, _ := strings.Cut(name, "."); strings.HasPrefix(x, "Test") || strings.HasPrefix(x, "Benchmark") {
					continue
				}
				if !decls[name] {
					t.Errorf("%s:%d names %s, which is no declaration of internal/%s",
						doc, strings.Count(text[:code[0]+m[2]], "\n")+1, name, strings.Split(name, ".")[0])
				}
			}
		}
		for _, loc := range fence.FindAllStringIndex(text, -1) {
			check(loc)
		}
		text = fence.ReplaceAllStringFunc(text, func(f string) string { return strings.Repeat("\n", strings.Count(f, "\n")) })
		for _, loc := range span.FindAllStringIndex(text, -1) {
			check(loc)
		}
	}
}

// TestCodeCitesNoRoadmapItem keeps plan item numbers out of the code: an
// item is renumbered or closed as the plan moves on, so a comment that
// cites one by number goes stale while the code it explains does not. A
// comment states the fact instead. The benchmark harness under bench/ is
// not scanned.
func TestCodeCitesNoRoadmapItem(t *testing.T) {
	const cite = "ROADMAP" + " item" // split, so this file does not match itself
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err == nil && e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || path == "bench") {
			return fs.SkipDir
		}
		if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		b, err := os.ReadFile(path)
		for i, line := range strings.Split(string(b), "\n") {
			if strings.Contains(line, cite) {
				t.Errorf("%s:%d cites a %s by number; state the fact instead", path, i+1, cite)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDesignDocDoesNotGrow holds DESIGN.md to the size it had when the
// budget was set: a section that gains text must lose as much elsewhere.
func TestDesignDocDoesNotGrow(t *testing.T) {
	const budget = 157627 // bytes
	fi, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > budget {
		t.Errorf("DESIGN.md is %d B, over its %d B budget", fi.Size(), budget)
	}
}
