package sweep

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// csvHeader is the fixed column set; wall_ns/assembly_ns/factor_ns are
// appended when timing is on.
var csvHeader = []string{
	"id", "method", "fd", "amp", "n1", "n2", "status",
	"unknowns", "newton_iters", "time_steps", "continuation",
	"factorizations", "refactorizations", "pattern_reuse",
	"operator_applies", "precond_builds", "batch_reuse",
	"linear_iters", "gmres_fallbacks", "halvings",
	"accepted_steps", "rejected_steps", "refinements", "final_n1", "final_n2",
	"gain_valid", "gain_ratio", "gain_db", "hd2", "hd3", "swing",
	"spectrum", "err",
}

// WriteCSV writes one row per job. With timing=false the output depends
// only on the Spec and the solved numbers — never on scheduling — so two
// runs of the same sweep at different worker counts are byte-identical.
//
//mpde:canonical
func (r *Result) WriteCSV(w io.Writer, timing bool) error {
	cw := csv.NewWriter(w)
	header := csvHeader
	if timing {
		header = append(append([]string(nil), csvHeader...), "wall_ns", "assembly_ns", "factor_ns")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range r.Jobs {
		jr := &r.Jobs[i]
		rec := []string{
			strconv.Itoa(jr.Job.ID),
			string(jr.Job.Method),
			fmtG(jr.Job.Point.Fd),
			fmtG(jr.Job.Point.Amp),
			strconv.Itoa(jr.Job.Point.N1),
			strconv.Itoa(jr.Job.Point.N2),
			string(jr.Status),
			strconv.Itoa(jr.Unknowns),
			strconv.Itoa(jr.NewtonIters),
			strconv.Itoa(jr.TimeSteps),
			strconv.FormatBool(jr.UsedContinuation),
			strconv.Itoa(jr.Factorizations),
			strconv.Itoa(jr.Refactorizations),
			strconv.Itoa(jr.PatternReuse),
			strconv.Itoa(jr.OperatorApplies),
			strconv.Itoa(jr.PrecondBuilds),
			strconv.Itoa(jr.BatchReuse),
			strconv.Itoa(jr.LinearIters),
			strconv.Itoa(jr.GMRESFallbacks),
			strconv.Itoa(jr.Halvings),
			strconv.Itoa(jr.AcceptedSteps),
			strconv.Itoa(jr.RejectedSteps),
			strconv.Itoa(jr.Refinements),
			strconv.Itoa(jr.FinalN1),
			strconv.Itoa(jr.FinalN2),
			strconv.FormatBool(jr.GainValid),
			fmtE(jr.Gain.Ratio),
			fmtE(jr.Gain.DB),
			fmtE(jr.Gain.HD2),
			fmtE(jr.Gain.HD3),
			fmtE(jr.Swing),
			spectrumCell(jr.Spectrum),
			jr.Err,
		}
		if timing {
			rec = append(rec,
				strconv.FormatInt(jr.Wall.Nanoseconds(), 10),
				strconv.FormatInt(jr.AssemblyTime.Nanoseconds(), 10),
				strconv.FormatInt(jr.FactorTime.Nanoseconds(), 10))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// spectrumCell packs the dominant mixes into one comma-free cell.
func spectrumCell(lines []Line) string {
	if len(lines) == 0 {
		return ""
	}
	parts := make([]string, len(lines))
	for i, l := range lines {
		parts[i] = fmt.Sprintf("(%d %d)@%s:%s", l.K1, l.K2, fmtG(l.Freq), fmtE(l.Amp))
	}
	return strings.Join(parts, ";")
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func fmtE(v float64) string { return strconv.FormatFloat(v, 'e', 9, 64) }

// WriteJSON writes the full aggregate. With timing=false the scheduling
// metadata — the wall-clock fields and the pool's worker count — is zeroed
// (on copies) so the serialisation depends only on the Spec and the solved
// numbers: two runs of the same Spec at different worker counts are
// byte-identical, which is what lets a server cache entries by content
// hash.
//
// The envelope is written by hand in the Result struct's field order and
// each job is encoded and flushed individually, so a large sweep streams
// out job by job instead of buffering the whole payload. The bytes are
// exactly what a json.Encoder with two-space indentation produces for the
// equivalent Result value.
//
//mpde:canonical
func (r *Result) WriteJSON(w io.Writer, timing bool) error {
	bw := bufio.NewWriter(w)
	name, err := json.Marshal(r.Name)
	if err != nil {
		return err
	}
	wall, workers := r.Wall, r.Workers
	if !timing {
		wall, workers = 0, 0
	}
	fmt.Fprintf(bw, "{\n  \"name\": %s,\n  \"workers\": %d,\n  \"wall_ns\": %d,\n  \"jobs\": ",
		name, workers, wall)
	switch {
	case r.Jobs == nil:
		bw.WriteString("null")
	case len(r.Jobs) == 0:
		bw.WriteString("[]")
	default:
		bw.WriteString("[\n")
		for i := range r.Jobs {
			jr := r.Jobs[i]
			if !timing {
				jr.Wall, jr.AssemblyTime, jr.FactorTime = 0, 0, 0
			}
			b, err := json.MarshalIndent(&jr, "    ", "  ")
			if err != nil {
				return err
			}
			bw.WriteString("    ")
			bw.Write(b)
			if i < len(r.Jobs)-1 {
				bw.WriteString(",\n")
			} else {
				bw.WriteString("\n")
			}
		}
		bw.WriteString("  ]")
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}
