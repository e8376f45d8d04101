package main

import (
	"fmt"
	"os"
	"strings"
)

// goldenTable is one rendered metrics.Table as the quick golden files store
// it: a "== title ==" line, a header row, a dashed rule, then data rows.
type goldenTable struct {
	headers []string
	rows    [][]string
}

// parseGolden parses the first table in a golden file. Cells are separated
// by runs of spaces; no golden cell contains a space.
func parseGolden(text string) (goldenTable, error) {
	var t goldenTable
	lines := strings.Split(text, "\n")
	i := 0
	for i < len(lines) && !strings.HasPrefix(lines[i], "== ") {
		i++
	}
	if i+2 >= len(lines) {
		return t, fmt.Errorf("golden: no table title")
	}
	t.headers = strings.Fields(lines[i+1])
	if !strings.HasPrefix(strings.TrimSpace(lines[i+2]), "-") {
		return t, fmt.Errorf("golden: missing rule under header %q", lines[i+1])
	}
	for _, ln := range lines[i+3:] {
		if strings.TrimSpace(ln) == "" {
			break
		}
		f := strings.Fields(ln)
		if len(f) != len(t.headers) {
			return t, fmt.Errorf("golden: row %q has %d cells, header has %d", ln, len(f), len(t.headers))
		}
		t.rows = append(t.rows, f)
	}
	if len(t.rows) == 0 {
		return t, fmt.Errorf("golden: table has no rows")
	}
	return t, nil
}

// cell returns the value in column col of the row whose leading cells equal
// key (e.g. "masstree", "30%").
func (t goldenTable) cell(col string, key ...string) (string, bool) {
	ci := -1
	for i, h := range t.headers {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		return "", false
	}
rows:
	for _, r := range t.rows {
		for k, v := range key {
			if r[k] != v {
				continue rows
			}
		}
		return r[ci], true
	}
	return "", false
}

func readGolden(path string) (goldenTable, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return goldenTable{}, err
	}
	t, err := parseGolden(string(b))
	if err != nil {
		return t, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
