package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runFresh runs one untraced workload in a fresh process of this same
// binary and parses its model and result lines.
func runFresh(o options, workload string) (*modelLine, *result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe,
		"--workload", workload,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", workload, err)
	}
	var ml modelLine
	var res result
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte(`{"workload"`)):
			err = json.Unmarshal(line, &ml)
		case bytes.HasPrefix(line, []byte(`{"correct"`)):
			err = json.Unmarshal(line, &res)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: parsing %q: %w", workload, line, err)
		}
	}
	if ml.ModelDigest == "" || res.Metrics == nil {
		return nil, nil, fmt.Errorf("%s: run printed no model or result line", workload)
	}
	if !res.Correct {
		return nil, nil, fmt.Errorf("%s: run reported correct=false", workload)
	}
	return &ml, &res, nil
}

// fingerprint names the machine and the code a ledger entry was
// measured on.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d cpu=%q go=%s git=%s", runtime.NumCPU(), cpu, runtime.Version(), sha)
}

// runSelfcheck runs every workload twice in fresh processes and prints,
// per metric and workload, both values, their relative difference and
// the bound. It returns 1 if a host metric differs by more than its
// bound, or if a sim metric or a model digest differs at all.
func runSelfcheck(o options) int {
	fmt.Printf("selfcheck seed=%d seconds=%g %s\n", o.seed, o.seconds, fingerprint())
	fmt.Printf("%-15s %-26s %-5s %16s %16s %9s %7s  %s\n",
		"workload", "metric", "clock", "run 1", "run 2", "rel.diff", "bound", "verdict")
	bad := 0
	for _, spec := range workloads {
		var ml [2]*modelLine
		var res [2]*result
		for i := range ml {
			var err error
			if ml[i], res[i], err = runFresh(o, spec.name); err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
				return 1
			}
		}
		row := func(name, clock string, a, b, bound float64) {
			diff := 0.0
			if a != b {
				diff = math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
			}
			verdict := "ok"
			if (clock == "sim" && a != b) || diff > bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("%-15s %-26s %-5s %16.6g %16.6g %9.4f %7.2f  %s\n",
				spec.name, name, clock, a, b, diff, bound, verdict)
		}
		for _, d := range endToEnd {
			row(d.name, d.clock, res[0].Metrics[d.name].Value, res[1].Metrics[d.name].Value, d.bound)
		}
		names := make([]string, 0, len(ml[0].Sim))
		for name := range ml[0].Sim {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			row(name, "sim", ml[0].Sim[name], ml[1].Sim[name], 0)
		}
		verdict := "ok"
		if ml[0].ModelDigest != ml[1].ModelDigest {
			verdict = "FAIL"
			bad++
		}
		fmt.Printf("%-15s %-26s %-5s %16.16s %16.16s %9s %7s  %s\n",
			spec.name, "model_digest", "sim", ml[0].ModelDigest, ml[1].ModelDigest, "", "", verdict)
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d comparison(s) outside their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every host metric within its bound, every sim metric and digest equal")
	return 0
}
