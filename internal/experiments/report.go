package experiments

import (
	"fmt"
	"strings"
)

// Report is one regenerated table or figure with its paper-vs-measured
// comparison.
type Report struct {
	// ID matches DESIGN.md's experiment index ("fig8", "tab2", ...).
	ID    string
	Title string
	// Paper states the shape the paper reports.
	Paper string
	// Measured states what this run produced.
	Measured string
	// Pass records whether the paper's qualitative shape held.
	Pass bool
	// Body is the full ASCII rendering (the "figure").
	Body string
	// Figures are the plot files drawn from the same samples as Body
	// (written by WriteFigures); nil for tables and ablations.
	Figures []Figure
}

// String renders the report for terminal output.
func (r Report) String() string {
	status := "SHAPE HOLDS"
	if !r.Pass {
		status = "SHAPE DIFFERS"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&sb, "paper:    %s\n", r.Paper)
	fmt.Fprintf(&sb, "measured: %s\n", r.Measured)
	if r.Body != "" {
		sb.WriteString(r.Body)
		if !strings.HasSuffix(r.Body, "\n") {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Markdown renders the report as an EXPERIMENTS.md section.
func (r Report) Markdown() string {
	status := "✅ shape holds"
	if !r.Pass {
		status = "⚠️ shape differs"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "- **Paper:** %s\n- **Measured:** %s\n- **Status:** %s\n\n", r.Paper, r.Measured, status)
	if r.Body != "" {
		sb.WriteString("```\n")
		sb.WriteString(r.Body)
		if !strings.HasSuffix(r.Body, "\n") {
			sb.WriteByte('\n')
		}
		sb.WriteString("```\n\n")
	}
	return sb.String()
}

// PlantReports runs every plant-case-study experiment.
func PlantReports(p *PlantArtifacts) []Report {
	return []Report{
		Fig2(p), Fig3(p), Fig4(p), Table1(p), Fig5(p),
		Fig6(p), Fig7(p), Fig8(p), Fig9(p),
	}
}

// HDDReports runs every Backblaze-case-study experiment.
func HDDReports(h *HDDArtifacts) []Report {
	return []Report{Fig10(h), Table2(h), Fig11(h), Fig12(h), Table3(h)}
}
