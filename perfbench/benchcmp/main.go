// Command benchcmp compares two sets of perfbench results. Each set is
// a list of files or directories holding the standard output of runs;
// a result line is attributed to the workload named by the metadata
// line before it. For every workload and metric it prints each side's
// median and quartiles and the change of the medians, and flags:
//
//	WORSE   the second set's median is worse by more than the metric's bound
//	noisy   otherwise, a side's quartile spread exceeds the bound: unresolved
//	better  otherwise, the second set's median is better by more than the bound
//
// Bounds and directions come from BENCHMARK.json; per-layer metrics
// have none and are printed without a flag. The exit code is 1 when any
// pair is WORSE. Usage, from the perfbench directory:
//
//	go run ./benchcmp -bench ../BENCHMARK.json old/ -- new/
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// set maps workload → metric → values, one per run.
type set map[string]map[string][]float64

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	oldPaths, newPaths, ok := split(fs.Args())
	if !ok {
		fmt.Fprintln(stderr, "usage: benchcmp [-bench BENCHMARK.json] old-results... -- new-results...")
		return 2
	}
	sp, err := readSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 1
	}
	a, err := readSet(oldPaths)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 1
	}
	b, err := readSet(newPaths)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 1
	}
	if compare(stdout, sp, a, b) {
		return 1
	}
	return 0
}

func split(args []string) (before, after []string, ok bool) {
	for i, a := range args {
		if a == "--" {
			return args[:i], args[i+1:], i > 0 && i < len(args)-1
		}
	}
	return nil, nil, false
}

func readSpec(path string) (map[string]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]metricSpec)
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// readSet collects every result line under paths (directories are read
// one level deep, in name order).
func readSet(paths []string) (set, error) {
	s := make(set)
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		files := []string{p}
		if st.IsDir() {
			entries, err := os.ReadDir(p)
			if err != nil {
				return nil, err
			}
			files = files[:0]
			for _, e := range entries {
				if !e.IsDir() {
					files = append(files, filepath.Join(p, e.Name()))
				}
			}
		}
		for _, f := range files {
			if err := readFile(f, s); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
		}
	}
	if len(s) == 0 {
		return nil, errors.New("no results found in " + strings.Join(paths, " "))
	}
	return s, nil
}

func readFile(path string, s set) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	workload := ""
	for sc.Scan() {
		var line struct {
			Meta *struct {
				Workload string `json:"workload"`
			} `json:"meta"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Meta != nil:
			workload = line.Meta.Workload
		case line.Metrics != nil && workload != "":
			if s[workload] == nil {
				s[workload] = make(map[string][]float64)
			}
			for name, m := range line.Metrics {
				s[workload][name] = append(s[workload][name], m.Value)
			}
		}
	}
	return sc.Err()
}

// quartiles returns the first quartile, median and third quartile with
// the "exclusive" method of Python's statistics.quantiles(n=4), so the
// spreads match what the benchmark's acceptance check computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q[0], med, q[2]
}

// compare prints the table and reports whether any pair is WORSE.
func compare(w io.Writer, sp map[string]metricSpec, a, b set) bool {
	worse := false
	var workloads []string
	for wl := range a {
		if b[wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s\n", wl)
		fmt.Fprintf(w, "  %-30s %-34s %-34s %9s  %s\n", "metric", "old median [q1 q3] (n)", "new median [q1 q3] (n)", "change", "flag")
		var names []string
		for name := range a[wl] {
			if b[wl][name] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			aq1, amed, aq3 := quartiles(a[wl][name])
			bq1, bmed, bq3 := quartiles(b[wl][name])
			change := (bmed - amed) / math.Abs(amed)
			flag := ""
			if ms, ok := sp[name]; ok && ms.Bound != nil {
				bound := *ms.Bound
				worseBy := change
				if ms.Better == "higher" {
					worseBy = -change
				}
				switch {
				case worseBy > bound:
					flag = "WORSE"
					worse = true
				case (aq3-aq1)/math.Abs(amed) > bound || (bq3-bq1)/math.Abs(bmed) > bound:
					flag = "noisy"
				case worseBy < -bound:
					flag = "better"
				}
			}
			fmt.Fprintf(w, "  %-30s %-34s %-34s %+8.1f%%  %s\n", name,
				fmt.Sprintf("%.4g [%.4g %.4g] (%d)", amed, aq1, aq3, len(a[wl][name])),
				fmt.Sprintf("%.4g [%.4g %.4g] (%d)", bmed, bq1, bq3, len(b[wl][name])),
				100*change, flag)
		}
	}
	return worse
}
