package cmi

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMetricsDocumented is the docs-consistency guard wired into `make
// check`: every `cmi_*` metric name registered anywhere in non-test Go
// code must be documented in docs/OPERATIONS.md's metrics catalog. A
// new series without an operator-facing description fails the build.
// Conversely, every series the catalog lists must still be registered
// by non-test Go code outside bench/ (the benchmark only reads series),
// so a retired series cannot linger in the operator docs.
func TestMetricsDocumented(t *testing.T) {
	docBytes, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md: %v", err)
	}
	doc := string(docBytes)

	metricRe := regexp.MustCompile(`"(cmi_[a-z0-9_]+)"`)
	found := map[string][]string{}
	registered := map[string]bool{} // literals outside bench/
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricRe.FindAllStringSubmatch(string(src), -1) {
			found[m[1]] = append(found[m[1]], path)
			if !strings.HasPrefix(filepath.ToSlash(path), "bench/") {
				registered[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no cmi_* metric literals found in Go sources; the guard's scan is broken")
	}
	var missing []string
	for name, files := range found {
		if !strings.Contains(doc, name) {
			missing = append(missing, name+" (registered in "+files[0]+")")
		}
	}
	if len(missing) > 0 {
		t.Errorf("metrics registered in code but missing from docs/OPERATIONS.md:\n  %s",
			strings.Join(missing, "\n  "))
	}

	catalog, ok := markdownSection(doc, "## Metrics catalog")
	if !ok {
		t.Fatal("docs/OPERATIONS.md has no \"## Metrics catalog\" section")
	}
	rowRe := regexp.MustCompile("(?m)^\\| `(cmi_[a-z0-9_]+)` \\|")
	rows := rowRe.FindAllStringSubmatch(catalog, -1)
	if len(rows) == 0 {
		t.Fatal("no cmi_* rows found in the metrics catalog; the guard's parse is broken")
	}
	var stale []string
	for _, r := range rows {
		if !registered[r[1]] {
			stale = append(stale, r[1])
		}
	}
	if len(stale) > 0 {
		t.Errorf("metrics documented in docs/OPERATIONS.md but registered by no non-test Go code outside bench/:\n  %s",
			strings.Join(stale, "\n  "))
	}
}

// markdownSection returns the body of the level-2 section headed by
// heading, up to the next level-2 heading.
func markdownSection(doc, heading string) (string, bool) {
	i := strings.Index(doc, "\n"+heading+"\n")
	if i < 0 {
		return "", false
	}
	body := doc[i+len(heading)+2:]
	if j := strings.Index(body, "\n## "); j >= 0 {
		body = body[:j]
	}
	return body, true
}
