package numa

import (
	"os"
	"strconv"
	"strings"
	"sync"
)

// LLCBytes returns the size of the last-level cache detected from sysfs,
// falling back to 8 MiB when detection is unavailable. No kernel reads it:
// its one caller is the header line benchmark/run.go prints, and on a VM it
// reports the host's shared L3, not what a worker can keep resident.
func LLCBytes() int64 {
	llcOnce.Do(func() {
		llcBytes = detectLLCBytes()
		if llcBytes <= 0 {
			llcBytes = 8 << 20
		}
	})
	return llcBytes
}

var (
	llcOnce  sync.Once
	llcBytes int64
)

// detectLLCBytes parses /sys/devices/system/cpu/cpu0/cache: the highest
// index level present is the LLC. Sizes are reported like "8192K". It
// returns 0 where sysfs is absent (non-Linux hosts, bare containers).
func detectLLCBytes() int64 {
	for _, idx := range []string{"index3", "index2", "index1"} {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, s[:len(s)-1]
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, s[:len(s)-1]
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			return v * mult
		}
	}
	return 0
}
