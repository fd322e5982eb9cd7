package main

import (
	"context"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"scisparql/internal/array"
)

// meta records what a number was measured on and with. Two reports are
// comparable only when everything here but the commit agrees.
type meta struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NProc         int     `json:"nproc"`
	CPUModel      string  `json:"cpu_model"`
	Kernel        string  `json:"kernel"`
	Seed          int64   `json:"seed"`
	Clients       int     `json:"clients"`
	FetchWidth    int     `json:"fetch_width"`
	WindowS       float64 `json:"window_s"`
	WarmupS       float64 `json:"warmup_s"`
	OpenS         float64 `json:"open_s"`
	OpenRate      int     `json:"open_rate"`
	WALSync       string  `json:"wal_sync"`
	WALGroupMS    float64 `json:"wal_group_ms"`
	ChunkCacheB   int64   `json:"chunk_cache_bytes"`
	ChunkBytes    int     `json:"chunk_bytes"`
	SimLatencyUS  float64 `json:"sim_latency_us"`
	Scale         scale   `json:"scale"`
	DistinctTexts int     `json:"distinct_texts"`
	OpsSHA256     string  `json:"ops_sha256"`
}

func metaOf(cfg *config, e *env) meta {
	m := meta{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Seed:       cfg.Seed,
		Clients:    nClients,
		FetchWidth: fetchWidth,
		WindowS:    cfg.Window.Seconds(),
		WarmupS:    cfg.Warmup.Seconds(),

		ChunkCacheB:   array.SharedChunkCache().Budget(),
		ChunkBytes:    cfg.Scale.ChunkBytes,
		Scale:         cfg.Scale,
		DistinctTexts: len(e.seq.Texts),
		OpsSHA256:     e.sha,
	}
	switch e.name {
	case wlMetaMix:
		m.OpenS, m.OpenRate = cfg.Open.Seconds(), cfg.Scale.OpenRate
	case wlMixedRW:
		m.WALSync, m.WALGroupMS = walSync, ms(walGroupWait)
	case wlArrayOutOfCore:
		m.SimLatencyUS = us(simLatency)
	}
	return m
}

// gitCommit asks git for HEAD; a checkout that is not a repository
// (the driver's) reports "unknown".
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
