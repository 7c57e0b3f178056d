package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &runFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// spreadOf is the distance between the quartiles as a share of the median.
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// cmdCompare sets run file b against run file a: for every pairing of
// workload and end-to-end metric, b's median may be worse than a's by at
// most the metric's bound. Where either side's own run-to-run spread is
// wider than the bound the pairing is unresolved, not unchanged.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: kvell-e2e compare a.json b.json")
	}
	a, err := readRunFile(args[0])
	if err != nil {
		return err
	}
	b, err := readRunFile(args[1])
	if err != nil {
		return err
	}
	if a.Mode != "run" || b.Mode != "run" {
		return fmt.Errorf("compare reads files written by `run -out`; per-layer metrics carry no bounds")
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("the two files were run with different -seconds (%g and %g)", a.Seconds, b.Seconds)
	}

	fmt.Printf("%-20s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %12.12s", d.name)
	}
	fmt.Println("\n(b against a: + is worse; = identical, ? unresolved, ! regression)")
	var findings []string
	for i := range workloads {
		name := workloads[i].name
		ra, rb := a.Workloads[name], b.Workloads[name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Printf("%-20s", name)
		for _, d := range endToEnd {
			xa, xb := valuesOf(ra, d.name), valuesOf(rb, d.name)
			worse := worseBy(d, median(xa), median(xb))
			spread := max(spreadOf(xa), spreadOf(xb))
			mark := " "
			switch {
			case median(xa) == median(xb):
				mark = "="
			case d.name == "goodput_share" && worse > 0:
				mark = "!"
				findings = append(findings, fmt.Sprintf("%s: goodput_share fell from %.6g to %.6g", name, median(xa), median(xb)))
			case spread > d.bound:
				mark = "?"
			case worse > d.bound:
				mark = "!"
				findings = append(findings, fmt.Sprintf("%s: %s worse by %.1f%% (bound %.0f%%, spread %.1f%%): %.6g -> %.6g %s",
					name, d.name, 100*worse, 100*d.bound, 100*spread, median(xa), median(xb), d.unit))
			}
			fmt.Printf(" %+10.1f%%%s", 100*worse, mark)
		}
		fmt.Println()
	}
	for _, f := range findings {
		fmt.Println("regression:", f)
	}
	if len(findings) > 0 {
		return fmt.Errorf("%d regressions", len(findings))
	}
	return nil
}
