package main

import (
	"bytes"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is this process's user+system CPU time so far. It is blind to
// steal and sees spinning, which is what cpu_ms_per_op wants: cost, not
// delay.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// procStat returns the host's cumulative steal and total jiffies from the
// aggregate cpu line of /proc/stat.
func procStat() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		// guest and guest_nice (fields 9, 10) are already inside user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cacheBytes reads one cpu0 cache level's size from sysfs (0 if unknown).
func cacheBytes(level int) int64 {
	for idx := 0; idx < 8; idx++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(idx) + "/"
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "type")
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, _ := os.ReadFile(dir + "size")
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		if t, ok := strings.CutSuffix(s, "K"); ok {
			s, mult = t, 1<<10
		} else if t, ok := strings.CutSuffix(s, "M"); ok {
			s, mult = t, 1<<20
		}
		n, _ := strconv.ParseInt(s, 10, 64)
		return n * mult
	}
	return 0
}

// gitSHA names the commit under test, "-dirty" when the tree has local
// changes, "unknown" outside a git checkout (the driver's checkouts).
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown" // do not let git search the directories above
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain").Output()
	if err == nil && len(bytes.TrimSpace(st)) > 0 {
		sha += "-dirty"
	}
	return sha
}
