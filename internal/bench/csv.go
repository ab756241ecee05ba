package bench

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// WriteCSV runs the named experiment and writes its raw data rows as a CSV
// file into dir (named <experiment>.csv), for plotting with external tools.
// "all" exports every experiment that has a CSV form.
func WriteCSV(name string, cfg Config, dir string) error {
	if name == "all" {
		for _, n := range csvExperiments() {
			if err := WriteCSV(n, cfg, dir); err != nil {
				return err
			}
		}
		return nil
	}
	rows, err := csvRows(name, cfg)
	if err != nil {
		return err
	}
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
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csvExperiments lists the experiments with a CSV export.
func csvExperiments() []string {
	return []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "table1", "ablation", "numa", "alphabeta"}
}

func csvRows(name string, cfg Config) ([][]string, error) {
	ms := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 4, 64)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	i := strconv.Itoa

	switch name {
	case "fig2":
		res, err := Fig2(cfg)
		if err != nil {
			return nil, err
		}
		rows := [][]string{{"sources", "util_msbfs", "util_mspbfs"}}
		for _, r := range res.Rows {
			rows = append(rows, []string{i(r.Sources), f(r.UtilMSBFS), f(r.UtilMSPBFS)})
		}
		return rows, nil
	case "fig3":
		res, err := Fig3(cfg)
		if err != nil {
			return nil, err
		}
		rows := [][]string{{"threads", "msbfs_overhead", "mspbfs_overhead"}}
		for _, r := range res.Rows {
			rows = append(rows, []string{i(r.Threads), f(r.MSBFSOverhead), f(r.MSPBFSOverhead)})
		}
		return rows, nil
	case "fig8", "fig9":
		res, err := Fig8(cfg)
		if err != nil {
			return nil, err
		}
		rows := [][]string{{"algorithm", "labeling", "iteration", "millis", "skew"}}
		for _, s := range res.Series {
			for it := range s.IterMillis {
				rows = append(rows, []string{s.Algorithm, s.Labeling, i(it + 1), f(s.IterMillis[it]), f(s.IterSkew[it])})
			}
		}
		return rows, nil
	case "fig10":
		res, err := Fig10(cfg)
		if err != nil {
			return nil, err
		}
		rows := [][]string{{"scale", "algorithm", "gteps"}}
		for _, r := range res.Rows {
			rows = append(rows, []string{i(r.Scale), r.Algorithm, f(r.GTEPS)})
		}
		return rows, nil
	case "fig11":
		res, err := Fig11(cfg)
		if err != nil {
			return nil, err
		}
		rows := [][]string{{"threads", "algorithm", "millis", "speedup"}}
		for _, r := range res.Rows {
			rows = append(rows, []string{i(r.Threads), r.Algorithm, ms(r.Elapsed), f(r.Speedup)})
		}
		return rows, nil
	case "fig12":
		res, err := Fig12(cfg)
		if err != nil {
			return nil, err
		}
		rows := [][]string{{"scale", "algorithm", "gteps"}}
		for _, r := range res.Rows {
			rows = append(rows, []string{i(r.Scale), r.Algorithm, f(r.GTEPS)})
		}
		return rows, nil
	case "table1":
		res, err := Table1(cfg)
		if err != nil {
			return nil, err
		}
		rows := [][]string{{"graph", "vertices", "edges", "memory_mb",
			"mspbfs_per64_ms", "mspbfs_gteps", "msbfs_gteps", "msbfs64_gteps", "smspbfs_gteps", "smspbfs_repr", "ibfs_gteps"}}
		for _, r := range res.Rows {
			rows = append(rows, []string{
				r.Name, i(r.Vertices), strconv.FormatInt(r.Edges, 10), f(r.MemoryMB),
				ms(r.MSPBFSPer64), f(r.MSPBFS), f(r.MSBFS), f(r.MSBFS64), f(r.SMSPBFS), r.SMSRepr, f(r.IBFSGteps)})
		}
		return rows, nil
	case "ablation":
		res, err := Ablation(cfg)
		if err != nil {
			return nil, err
		}
		rows := [][]string{{"study", "variant", "millis"}}
		for _, r := range res.Rows {
			rows = append(rows, []string{r.Study, r.Variant, ms(r.Elapsed)})
		}
		return rows, nil
	case "numa":
		res, err := NUMALocality(cfg)
		if err != nil {
			return nil, err
		}
		rows := [][]string{{"algorithm", "stealing", "locality", "local", "remote"}}
		for _, r := range res.Rows {
			rows = append(rows, []string{r.Algorithm, strconv.FormatBool(r.Stealing), f(r.Locality),
				strconv.FormatInt(r.Local, 10), strconv.FormatInt(r.Remote, 10)})
		}
		return rows, nil
	case "alphabeta":
		res, err := AlphaBeta(cfg)
		if err != nil {
			return nil, err
		}
		rows := [][]string{{"alpha", "beta", "millis", "bottom_up_iterations", "first_bottom_up"}}
		for _, r := range res.Rows {
			rows = append(rows, []string{f(r.Alpha), f(r.Beta), ms(r.Elapsed), i(r.BottomUpIts), i(r.FirstBottomUp)})
		}
		return rows, nil
	default:
		return nil, fmt.Errorf("bench: no CSV export for %q (known: %v)", name, csvExperiments())
	}
}
