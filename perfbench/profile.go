package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// profilePackages are the groups the CPU profile's flat time is reported
// in: the repository's packages, then the runtime, the network stack,
// JSON, and everything else.
var profilePackages = []string{
	"circuit", "buffer", "core", "morphy", "capybara", "harvest", "mcu", "workload", "ckpt",
	"sim", "trace", "scenario", "runner", "explore", "store", "service", "obs",
	"runtime", "net", "json", "other",
}

// physicsPackages are the buffer-physics layers the ladder's
// ladder.physics_share predicts.
var physicsPackages = []string{"circuit", "buffer", "core", "morphy", "capybara"}

func (e *env) profilePath() string { return filepath.Join(e.scratch, "cpu.pprof") }

// startProfile begins a CPU profile of the measured phase of a traced run;
// the returned stop may be called more than once.
func (e *env) startProfile() (stop func(), err error) {
	if !e.traced {
		return func() {}, nil
	}
	f, err := os.Create(e.profilePath())
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}, nil
}

// reportProfile groups the profile's flat CPU time by package with
// `go tool pprof -top`.
func reportProfile(e *env, r *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", exe, e.profilePath())
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	shares := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(&out)
	rows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[packageOf(strings.Join(f[5:], " "))] += pct / 100
		total += pct / 100
	}
	if total == 0 {
		return fmt.Errorf("go tool pprof: empty profile")
	}
	physics := 0.0
	for _, p := range profilePackages {
		r.set("cpu.share."+p, shares[p]/total, "share", 0, "flat CPU, traced phase")
	}
	for _, p := range physicsPackages {
		physics += shares[p] / total
	}
	r.set("cpu.physics_share", physics, "share", 0, "profile's buffer-physics share; compare ladder.physics_share")
	return nil
}

// packageOf maps a profiled function name onto a profilePackages group.
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "react/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, p := range profilePackages {
			if p == rest {
				return p
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime"):
		return "runtime"
	case strings.HasPrefix(fn, "net/") || strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/poll."):
		return "net"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	}
	return "other"
}
