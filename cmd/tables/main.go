// Command tables regenerates the paper's evaluation tables (1–5), the §5.1
// overhead characterization, and the headline improvement numbers.
//
// Usage:
//
//	tables [-table 1|2|3|4|5|overhead|all] [-seed n] [-csv]
//
// Tables 2, 4 and 5 require the full evaluation grid (4 benchmarks ×
// 5 traces × 5 buffers ≈ one minute of simulation, parallelized).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"react/internal/experiments"
	"react/internal/runner"
	"react/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's body with explicit arguments and streams, returning the
// exit code: 0 on success, 1 on a failed run, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which   = fs.String("table", "all", "which table: 1, 2, 3, 4, 5, overhead, fig7, all")
		seed    = fs.Uint64("seed", 1, "trace/event seed")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		workers = fs.Int("workers", 0, "worker pool size for the grid (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opt := scenario.RunOptions{Seed: *seed}
	var tables []*experiments.Table

	needGrid := map[string]bool{"2": true, "4": true, "5": true, "fig7": true, "all": true}[*which]
	var grid *experiments.Grid
	if needGrid {
		var err error
		fmt.Fprintln(stderr, "tables: running the evaluation grid (4 benchmarks × 5 traces × 5 buffers)...")
		r := &runner.Runner{
			Workers: *workers,
			OnProgress: func(p runner.Progress) {
				fmt.Fprintf(stderr, "\rtables: %d/%d cells", p.Done, p.Total)
				if p.Done == p.Total {
					fmt.Fprintln(stderr)
				}
			},
		}
		grid, err = experiments.RunGridOn(context.Background(), r, opt)
		if err != nil {
			fmt.Fprintln(stderr, "tables:", err)
			return 1
		}
	}

	add := func(t *experiments.Table) { tables = append(tables, t) }
	switch *which {
	case "1":
		add(experiments.Table1())
	case "3":
		add(experiments.Table3(*seed))
	case "2":
		add(experiments.Table2(grid))
	case "4":
		add(experiments.Table4(grid))
	case "5":
		add(experiments.Table5(grid))
	case "fig7":
		add(experiments.ComputeFigure7(grid).Table())
	case "overhead":
		o, err := experiments.RunOverhead(opt)
		if err != nil {
			fmt.Fprintln(stderr, "tables:", err)
			return 1
		}
		add(o.Table())
	case "all":
		add(experiments.Table1())
		add(experiments.Table3(*seed))
		add(experiments.Table4(grid))
		add(experiments.Table2(grid))
		add(experiments.Table5(grid))
		add(experiments.ComputeFigure7(grid).Table())
		o, err := experiments.RunOverhead(opt)
		if err != nil {
			fmt.Fprintln(stderr, "tables:", err)
			return 1
		}
		add(o.Table())
	default:
		fmt.Fprintf(stderr, "tables: unknown table %q\n", *which)
		return 2
	}

	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprint(stdout, t.String())
		}
	}
	return 0
}
