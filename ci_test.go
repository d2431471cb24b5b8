package rjoin

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCISelectorsNameTests keeps the CI workflow's named steps honest: in
// every `go test … -run '<re>' <pkgs>` command of .github/workflows/ci.yml,
// each top-level alternative of <re> must match at least one Test or Fuzz
// function declared in the packages the command names (`./x/...`
// recursively). A deleted or renamed test otherwise leaves a selector that
// quietly runs nothing. `^$`, the "no tests, only the fuzzer" idiom, is
// exempt. Likewise every `go run ./<dir>` and every `sh`/`bash <file>`
// must name a path that exists, so a step left behind by a deleted
// command or script fails here rather than only in CI.
func TestCISelectorsNameTests(t *testing.T) {
	f, err := os.Open(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	commands := 0
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		words := shellWords(sc.Text())
		for _, p := range namedPaths(words) {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("ci.yml:%d: %s does not exist", line, p)
			}
		}
		re, pkgs, ok := runSelector(words)
		if !ok {
			continue
		}
		commands++
		if len(pkgs) == 0 {
			t.Errorf("ci.yml:%d: -run names no package", line)
			continue
		}
		var names []string
		for _, pkg := range pkgs {
			got, err := testFuncs(pkg)
			if err != nil {
				t.Errorf("ci.yml:%d: package %s: %v", line, pkg, err)
			}
			names = append(names, got...)
		}
		for _, alt := range alternatives(re) {
			if alt == "^$" {
				continue
			}
			top, _, _ := strings.Cut(alt, "/") // a subtest path selects by its first element
			rx, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("ci.yml:%d: selector %q: %v", line, alt, err)
				continue
			}
			if !matchesAny(rx, names) {
				t.Errorf("ci.yml:%d: selector %q matches no test in %s", line, alt, strings.Join(pkgs, " "))
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if commands == 0 {
		t.Fatal("ci.yml has no go test -run command; the parser lost track of the workflow")
	}
}

// shellWords splits a workflow line into words, honouring single and
// double quotes — enough shell for the commands ci.yml runs.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	in, quote := false, byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			cur.WriteByte(c)
		case c == '\'' || c == '"':
			quote, in = c, true
		case c == ' ' || c == '\t':
			if in {
				words = append(words, cur.String())
				cur.Reset()
				in = false
			}
		default:
			cur.WriteByte(c)
			in = true
		}
	}
	if in {
		words = append(words, cur.String())
	}
	return words
}

// runSelector finds a `go test` command with a -run flag among words and
// returns the flag's pattern and the package arguments that follow.
// Package arguments are the relative paths (".", "./x", "./x/...").
func runSelector(words []string) (re string, pkgs []string, ok bool) {
	start := -1
	for i := 0; i+1 < len(words); i++ {
		if words[i] == "go" && words[i+1] == "test" {
			start = i + 2
			break
		}
	}
	if start < 0 {
		return "", nil, false
	}
	for i := start; i < len(words); i++ {
		w := words[i]
		if w == "&&" || w == ";" || w == "|" || strings.HasPrefix(w, ")") {
			break
		}
		switch {
		case w == "-run" && i+1 < len(words):
			re, ok = words[i+1], true
			i++
		case strings.HasPrefix(w, "-run="):
			re, ok = strings.TrimPrefix(w, "-run="), true
		case w == "." || strings.HasPrefix(w, "./"):
			pkgs = append(pkgs, w)
		}
	}
	return re, pkgs, ok
}

// namedPaths returns the repository paths a workflow line runs: the
// directory of each `go run ./<dir>` and the file of each `sh <file>` or
// `bash <file>`. Module paths (`go run golang.org/...@latest`) are not
// the repository's and are skipped, and so is everything after a `#`.
func namedPaths(words []string) []string {
	var paths []string
	for i := 0; i+1 < len(words); i++ {
		switch w := words[i]; {
		case strings.HasPrefix(w, "#"):
			return paths
		case w == "go" && words[i+1] == "run" && i+2 < len(words) && strings.HasPrefix(words[i+2], "./"):
			paths = append(paths, words[i+2])
		case (w == "sh" || w == "bash") && !strings.HasPrefix(words[i+1], "-"):
			paths = append(paths, words[i+1])
		}
	}
	return paths
}

// alternatives splits a regular expression at its top-level '|'s, the
// ones outside any group or character class.
func alternatives(re string) []string {
	var alts []string
	depth, class, from := 0, false, 0
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, re[from:i])
			from = i + 1
		}
	}
	return append(alts, re[from:])
}

// testDecl matches a top-level Test or Fuzz function declaration.
var testDecl = regexp.MustCompile(`^func ((?:Test|Fuzz)\w*)\(`)

// testFuncs lists the Test and Fuzz functions declared in a package
// argument's _test.go files. "./x/..." walks x's tree the way the go
// command does: testdata, dot and underscore directories and nested
// modules are not packages of this one.
func testFuncs(pkg string) ([]string, error) {
	dir, recursive := strings.CutSuffix(strings.TrimSuffix(pkg, "/"), "/...")
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	var names []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == dir {
				return nil
			}
			if !recursive {
				return filepath.SkipDir
			}
			base := d.Name()
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, l := range strings.Split(string(src), "\n") {
			if m := testDecl.FindStringSubmatch(l); m != nil {
				names = append(names, m[1])
			}
		}
		return nil
	})
	return names, err
}

func matchesAny(rx *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if rx.MatchString(n) {
			return true
		}
	}
	return false
}
