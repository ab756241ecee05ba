package bench

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// writeCSV writes an experiment's raw data rows as dir/<name>.csv, for
// plotting with external tools.
func writeCSV(dir, name string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func csvMillis(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 4, 64)
}

func csvFloat(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

func (res Fig2Result) csv() [][]string {
	rows := [][]string{{"sources", "util_msbfs", "util_mspbfs"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{strconv.Itoa(r.Sources), csvFloat(r.UtilMSBFS), csvFloat(r.UtilMSPBFS)})
	}
	return rows
}

func (res Fig3Result) csv() [][]string {
	rows := [][]string{{"threads", "msbfs_overhead", "mspbfs_overhead"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{strconv.Itoa(r.Threads), csvFloat(r.MSBFSOverhead), csvFloat(r.MSPBFSOverhead)})
	}
	return rows
}

func (res Fig8Result) csv() [][]string {
	rows := [][]string{{"algorithm", "labeling", "iteration", "millis", "skew"}}
	for _, s := range res.Series {
		for it := range s.IterMillis {
			rows = append(rows, []string{s.Algorithm, s.Labeling, strconv.Itoa(it + 1), csvFloat(s.IterMillis[it]), csvFloat(s.IterSkew[it])})
		}
	}
	return rows
}

func (res Fig10Result) csv() [][]string {
	rows := [][]string{{"scale", "algorithm", "gteps"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{strconv.Itoa(r.Scale), r.Algorithm, csvFloat(r.GTEPS)})
	}
	return rows
}

func (res Fig11Result) csv() [][]string {
	rows := [][]string{{"threads", "algorithm", "millis", "speedup"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{strconv.Itoa(r.Threads), r.Algorithm, csvMillis(r.Elapsed), csvFloat(r.Speedup)})
	}
	return rows
}

func (res Fig12Result) csv() [][]string {
	rows := [][]string{{"scale", "algorithm", "gteps"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{strconv.Itoa(r.Scale), r.Algorithm, csvFloat(r.GTEPS)})
	}
	return rows
}

func (res Table1Result) csv() [][]string {
	rows := [][]string{{"graph", "vertices", "edges", "memory_mb",
		"mspbfs_per64_ms", "mspbfs_gteps", "msbfs_gteps", "msbfs64_gteps", "smspbfs_gteps", "smspbfs_repr", "ibfs_gteps"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{
			r.Name, strconv.Itoa(r.Vertices), strconv.FormatInt(r.Edges, 10), csvFloat(r.MemoryMB),
			csvMillis(r.MSPBFSPer64), csvFloat(r.MSPBFS), csvFloat(r.MSBFS), csvFloat(r.MSBFS64), csvFloat(r.SMSPBFS), r.SMSRepr, csvFloat(r.IBFSGteps)})
	}
	return rows
}

func (res AblationResult) csv() [][]string {
	rows := [][]string{{"study", "variant", "millis"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{r.Study, r.Variant, csvMillis(r.Elapsed)})
	}
	return rows
}

func (res NUMAResult) csv() [][]string {
	rows := [][]string{{"algorithm", "stealing", "locality", "local", "remote"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{r.Algorithm, strconv.FormatBool(r.Stealing), csvFloat(r.Locality),
			strconv.FormatInt(r.Local, 10), strconv.FormatInt(r.Remote, 10)})
	}
	return rows
}

func (res AlphaBetaResult) csv() [][]string {
	rows := [][]string{{"alpha", "beta", "millis", "bottom_up_iterations", "first_bottom_up"}}
	for _, r := range res.Rows {
		rows = append(rows, []string{csvFloat(r.Alpha), csvFloat(r.Beta), csvMillis(r.Elapsed), strconv.Itoa(r.BottomUpIts), strconv.Itoa(r.FirstBottomUp)})
	}
	return rows
}
