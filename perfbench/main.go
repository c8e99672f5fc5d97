// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks the output of every operation, and
// prints one JSON result line as the last line of standard output:
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no instrumentation attached. With --trace 1 it carries the
// per-layer metrics of the traced run instead (see layers.go and
// README.md). All inputs derive from --seed and the operation index, so
// the simulated counts repeat exactly for a seed; host times do not.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	sz      sizes
	// corrupt, when set, alters every operation's output before it is
	// checked. The self-test uses it to show that a bad output is
	// counted as a failed operation.
	corrupt func(out any)
}

// A run repeats its set-up at least minSetups times, and goes on while
// the repetitions so far took under a quarter of the measuring time, up
// to maxSetups; setup_s is their median. Cheap set-ups so get enough
// repetitions, spread over several seconds, to be steady.
const (
	minSetups = 3
	maxSetups = 200
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every input derives from")
	seconds := flag.Float64("seconds", 20, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok {
		fatalf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	cfg := &config{seed: *seed, seconds: *seconds, sz: fullSizes}

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, cfg)
	} else {
		res, err = runPlain(w, cfg)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runPlain is the untraced run: set up several times, then run
// operations until the time is up (and at least w.minOps of them).
func runPlain(w workload, cfg *config) (result, error) {
	fam, setups, err := setUp(w, cfg)
	if err != nil {
		return result{}, err
	}
	if err := resetPeakRSS(); err != nil {
		return result{}, err
	}
	res := runOps(w, fam, cfg)
	res.set("setup_s", median(setups), "s")
	return res, nil
}

// setUp repeats the workload's set-up and returns the last state with
// the duration of every repetition.
func setUp(w workload, cfg *config) (family, []float64, error) {
	var setups []float64
	var fam family
	budget := time.Duration(cfg.seconds / 4 * float64(time.Second))
	for begin := time.Now(); len(setups) < minSetups ||
		(len(setups) < maxSetups && time.Since(begin) < budget); {
		fam = nil // let the previous repetition's state be collected
		runtime.GC()
		t0 := time.Now()
		f, err := w.setup(cfg)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		fam = f
	}
	return fam, setups, nil
}

// runOps runs operations until the time is up, and at least w.minOps of
// them, and reports every end-to-end metric but setup_s.
func runOps(w workload, fam family, cfg *config) result {
	var opTimes []float64
	rounds, counted := 0.0, 0
	res := result{Metrics: map[string]metric{}}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < w.minOps || time.Now().Before(deadline); i++ {
		// Each operation starts from a collected heap, so the garbage of
		// the one before is not charged to it.
		runtime.GC()
		st, err := fam.op(i, nil)
		res.Attempted++
		opTimes = append(opTimes, st.host.Seconds())
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", w.name, i, err)
			continue
		}
		// The simulated counts average over the first minOps
		// operations only, so they repeat exactly for a seed however
		// many operations the host fits into the run.
		if i < w.minOps {
			rounds += st.rounds
			counted++
		}
	}
	res.Correct = res.Failed == 0
	res.set("op_s", median(opTimes), "s")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("ok_frac", float64(res.Attempted-res.Failed)/float64(res.Attempted), "frac")
	res.set("sim_rounds", rounds/float64(max(counted, 1)), "rounds")
	return res
}

// set records a metric, replacing a non-finite value by 0 and marking
// the result incorrect, since JSON cannot carry NaN or infinities.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", name)
		v, r.Correct = 0, false
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// resetPeakRSS returns the heap's free pages to the system and resets
// the process's resident-set high-water mark to its current size, so
// peak_rss_mb measures the operations and not the set-up before them.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	_, err = f.WriteString("5") // 5: reset the high-water mark
	return errors.Join(err, f.Close())
}

// peakRSSMB is the process's resident-set high-water mark in MiB, since
// the last resetPeakRSS.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
