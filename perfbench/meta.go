package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runMeta stamps the run with the machine, the code and the workload's
// constants.
func runMeta(cfg config) map[string]any {
	w := cfg.w
	return map[string]any{
		"workload":       w.name,
		"seed":           cfg.seed,
		"seconds":        cfg.dur.Seconds(),
		"trace":          cfg.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"go_version":     runtime.Version(),
		"revision":       revision(),
		"source_sha256":  sourceDigest("."),
		"offered_rps":    w.rate,
		"connections":    cfg.conns,
		"hosts":          w.clusters * w.per,
		"tenants":        w.tenants,
		"selector":       string(w.selector),
		"sizes":          w.sizes,
		"epoch_sweeps":   w.epochSweeps,
		"sense_share":    w.senseShare,
		"open_share":     w.openShare,
		"primary_op":     w.primary,
		"setup_repeats":  setupRepeats,
		"sense_period_s": sensePeriod,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// revision is the VCS revision stamped into the binary, or "none" when
// it was built outside a repository.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes every Go source and go.mod under root, in walk
// order, skipping hidden directories (the build directory among them).
// It names the code a run measured even where no revision is stamped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
