package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins every instrcount output byte for byte: Table 1, the
// whole Figure 2 ladder and the Section 3 savings are the paper's
// reproduction, so a change to any charge shows up here. Regenerate a
// golden file only for a deliberate change to the cost model:
//
//	go run ./cmd/instrcount -fig2 > cmd/instrcount/testdata/fig2.golden
func TestGolden(t *testing.T) {
	for _, tc := range []struct{ golden, flag string }{
		{"all", ""},
		{"table1", "-table1"},
		{"fig2", "-fig2"},
		{"proposals", "-proposals"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var args []string
			if tc.flag != "" {
				args = []string{tc.flag}
			}
			var out bytes.Buffer
			if err := run(&out, args); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("instrcount %s differs from testdata/%s.golden:\n%s", tc.flag, tc.golden, diffLines(string(want), out.String()))
			}
		})
	}
}

func TestUnknownFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-nope"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// diffLines lists the lines that differ, want first.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			b.WriteString("- " + wl + "\n+ " + gl + "\n")
		}
	}
	return b.String()
}
