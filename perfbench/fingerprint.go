package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the machine and toolchain a result came from,
// so numbers from different hosts are never compared by mistake.
type fingerprint struct {
	GoVersion string   `json:"go_version"`
	GOAMD64   string   `json:"goamd64"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"nproc"`
	Workers   int      `json:"workers"`
	CPUModel  string   `json:"cpu_model"`
	CPUFlags  []string `json:"cpu_flags"`
}

func machineFingerprint(workers int) fingerprint {
	fp := fingerprint{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), Workers: workers}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				fp.GOAMD64 = s.Value
			}
		}
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return fp
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if fp.CPUModel == "" {
				fp.CPUModel = strings.TrimSpace(val)
			}
		case "flags":
			if fp.CPUFlags == nil {
				fp.CPUFlags = []string{}
				for _, fl := range strings.Fields(val) {
					if fl == "avx2" || fl == "fma" || strings.HasPrefix(fl, "avx512") {
						fp.CPUFlags = append(fp.CPUFlags, fl)
					}
				}
			}
		}
	}
	return fp
}
