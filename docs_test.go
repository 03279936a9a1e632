package piggyback

import (
	"os"
	"regexp"
	"strings"
	"testing"
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
