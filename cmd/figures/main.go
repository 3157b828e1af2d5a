// Command figures regenerates the paper's figures as CSV series plus the
// §2.1 background analysis.
//
//	figures -fig 1          voltage/on-time series for the 1 mF and 300 mF
//	                        static buffers on the pedestrian solar trace
//	figures -fig 6          voltage series for SC under RF Mobile across
//	                        770 µF, 10 mF, Morphy and REACT
//	figures -fig 7          normalized-performance summary (runs the grid)
//	figures -fig background §2.1 static-buffer analysis table
//
// Series go to one CSV file per run under -out (default "figures").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"react/internal/experiments"
	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's body with explicit arguments and streams, returning the
// exit code: 0 on success, 1 on a failed run, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "1", "which figure: 1, 6, 7, background")
		seed    = fs.Uint64("seed", 1, "trace/event seed")
		out     = fs.String("out", "figures", "output directory for CSV series")
		workers = fs.Int("workers", 0, "worker pool size for the grid (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opt := scenario.RunOptions{Seed: *seed}
	var err error
	switch *fig {
	case "1":
		err = figure1(stdout, *out, opt)
	case "6":
		err = figure6(stdout, *out, opt)
	case "7":
		fmt.Fprintln(stderr, "figures: running the evaluation grid...")
		r := &runner.Runner{
			Workers: *workers,
			OnProgress: func(p runner.Progress) {
				fmt.Fprintf(stderr, "\rfigures: %d/%d cells", p.Done, p.Total)
				if p.Done == p.Total {
					fmt.Fprintln(stderr)
				}
			},
		}
		var grid *experiments.Grid
		if grid, err = experiments.RunGridOn(context.Background(), r, opt); err == nil {
			fmt.Fprint(stdout, experiments.ComputeFigure7(grid).Table().String())
		}
	case "background":
		var bg experiments.Background
		if bg, err = experiments.RunBackground(opt); err == nil {
			fmt.Fprint(stdout, bg.Table().String())
		}
	default:
		fmt.Fprintf(stderr, "figures: unknown figure %q\n", *fig)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return 1
	}
	return 0
}

// figure1 writes one CSV series per Figure 1 buffer under dir.
func figure1(stdout io.Writer, dir string, opt scenario.RunOptions) error {
	runs, err := experiments.Figure1(opt)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range runs {
		name := filepath.Join(dir, "fig1_"+sanitize(r.Buffer)+".csv")
		if err := writeSeries(name, r.Buffer, r.Samples); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fig1 %-8s latency %7.1f s  on %6.0f s  cycles %4d  -> %s\n",
			r.Buffer, r.Latency, r.OnTime, r.Cycles, name)
	}
	return nil
}

// figure6 writes one CSV series per Figure 6 buffer under dir, in name
// order.
func figure6(stdout io.Writer, dir string, opt scenario.RunOptions) error {
	series, err := experiments.Figure6(opt)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		file := filepath.Join(dir, "fig6_"+sanitize(n)+".csv")
		if err := writeSeries(file, n, series[n]); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fig6 %-8s %5d samples -> %s\n", n, len(series[n]), file)
	}
	return nil
}

func writeSeries(name, label string, samples []sim.Sample) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := experiments.WriteSeriesCSV(f, label, samples); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sanitize(s string) string {
	s = strings.ReplaceAll(s, " ", "_")
	s = strings.ReplaceAll(s, "µ", "u")
	return s
}
