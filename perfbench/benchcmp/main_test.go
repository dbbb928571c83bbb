package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The quartiles match Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's acceptance spread is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{16, 1, 8, 2, 4}, 1.5, 4, 12},
		// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
		{[]float64{5, 3}, 2.5, 4, 5.5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("BENCHMARK.json", `{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"cache.get_us","unit":"us","better":"lower"}]}`)
	runs := func(vals ...string) string {
		var b strings.Builder
		for _, v := range vals {
			b.WriteString(`{"meta":{"workload":"serve-hot"}}` + "\n")
			b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_p50_ms":{"value":` + v +
				`,"unit":"ms"},"cache.get_us":{"value":1,"unit":"us"}}}` + "\n")
		}
		return b.String()
	}
	old := write("old.out", runs("1.00", "1.01", "0.99", "1.00", "1.02"))
	slow := write("slow.out", runs("1.30", "1.31", "1.29", "1.30", "1.32"))

	var out, errOut bytes.Buffer
	if code := run([]string{"-bench", spec, old, "--", old}, &out, &errOut); code != 0 {
		t.Fatalf("same sets: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run([]string{"-bench", spec, old, "--", slow}, &out, &errOut); code != 1 {
		t.Fatalf("regressed set: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "WORSE") || !strings.Contains(out.String(), "cache.get_us") {
		t.Errorf("table lacks the WORSE flag or the per-layer row:\n%s", out.String())
	}
}
