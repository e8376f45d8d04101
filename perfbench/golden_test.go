package main

import (
	"path/filepath"
	"testing"
)

func TestParseGolden(t *testing.T) {
	text := "== Figure 14: title with (parens) <=1.00 ==\n" +
		"app       load  Default  PIVOT\n" +
		"--------  ----  -------  -----\n" +
		"img-dnn   10%   3.40     0.37 \n" +
		"masstree  10%   3.17     0.33 \n" +
		"\n" +
		"== Figure 14 summary ==\n"
	g, err := parseGolden(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.rows) != 2 {
		t.Fatalf("rows = %v, want 2 rows", g.rows)
	}
	if v, ok := g.cell("PIVOT", "masstree", "10%"); !ok || v != "0.33" {
		t.Errorf("cell(PIVOT, masstree, 10%%) = %q, %v", v, ok)
	}
	if _, ok := g.cell("CLITE", "masstree", "10%"); ok {
		t.Error("found a cell in a column the table does not have")
	}
	if _, ok := g.cell("PIVOT", "masstree", "30%"); ok {
		t.Error("found a cell in a row the table does not have")
	}
	for _, bad := range []string{
		"",
		"== t ==\napp load\n",
		"== t ==\napp load\nno rule\nx 1\n",
		"== t ==\napp load\n---- ----\nx\n",
		"== t ==\napp load\n---- ----\n\n",
	} {
		if _, err := parseGolden(bad); err == nil {
			t.Errorf("parseGolden(%q) accepted a malformed table", bad)
		}
	}
}

// TestGoldenFilesParse reads the quick goldens the fig13-sweep workload is
// checked against and confirms every cell it compares is present.
func TestGoldenFilesParse(t *testing.T) {
	dir := filepath.Join("..", fig13Sweep.golden)
	for _, f := range []string{"golden_quick_fig13.txt", "golden_quick_fig14.txt"} {
		g, err := readGolden(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		for _, pct := range fig13Sweep.loads {
			for _, m := range sweepMethods {
				if _, ok := g.cell(m.Name, fig13Sweep.app, pctLabel(pct)); !ok {
					t.Errorf("%s: no %s cell for %s %d%%", f, m.Name, fig13Sweep.app, pct)
				}
			}
		}
	}
}
