package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is recorded in every output, so that two result files can
// be told apart before they are compared.
type environment struct {
	NProc      int     `json:"nproc"` // CPUs this process may use: affinity mask, capped by the cgroup quota
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// probeEnvironment records the machine and refuses a misleading run: Go
// before 1.25 sizes GOMAXPROCS from the CPU count and ignores a cgroup
// quota, so workers would time-share fewer CPUs than they believe they
// have. A GOMAXPROCS the user set above the usable CPUs is an error; the
// default is lowered to them.
func probeEnvironment() (environment, error) {
	nproc := runtime.NumCPU()
	if q := cgroupCPUs(); q > 0 && q < nproc {
		nproc = q
	}
	procs := runtime.GOMAXPROCS(0)
	if procs > nproc {
		if os.Getenv("GOMAXPROCS") != "" {
			return environment{}, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs this process may use", procs, nproc)
		}
		runtime.GOMAXPROCS(nproc)
		procs = nproc
	}
	return environment{
		NProc:      nproc,
		GoMaxProcs: procs,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Load1:      loadAverage(),
	}, nil
}

// cgroupCPUs returns the cgroup v2 CPU quota in whole CPUs, rounded up,
// or 0 when there is none.
func cgroupCPUs() int {
	b, err := os.ReadFile("/sys/fs/cgroup/cpu.max")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) != 2 || f[0] == "max" {
		return 0
	}
	quota, err1 := strconv.ParseFloat(f[0], 64)
	period, err2 := strconv.ParseFloat(f[1], 64)
	if err1 != nil || err2 != nil || period <= 0 {
		return 0
	}
	return int(math.Ceil(quota / period))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from, when the build was
// made inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return v
}
