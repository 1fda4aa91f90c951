// Command instrcount regenerates the paper's instruction-count analysis:
// Table 1 (the per-category breakdown of the default ch4 build), Figure 2
// (the build-configuration ladder for both devices), and the Section 3
// per-proposal savings. It is the stand-in for the Intel SDE tracing
// workflow of the paper's artifact.
//
// Usage:
//
//	instrcount             # everything
//	instrcount -table1     # Table 1 only
//	instrcount -fig2       # Figure 2 only
//	instrcount -proposals  # Section 3 savings only
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gompi/internal/bench"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "instrcount:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested tables to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("instrcount", flag.ContinueOnError)
	table1 := fs.Bool("table1", false, "print Table 1 only")
	fig2 := fs.Bool("fig2", false, "print Figure 2 only")
	proposals := fs.Bool("proposals", false, "print Section 3 proposal savings only")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	all := !*table1 && !*fig2 && !*proposals

	if *table1 || all {
		isend, put, err := bench.Table1()
		if err != nil {
			return err
		}
		bench.WriteTable1(w, isend, put)
		fmt.Fprintln(w)
	}
	if *fig2 || all {
		isends, puts, err := bench.Figure2()
		if err != nil {
			return err
		}
		bench.WriteFigure2(w, isends, puts)
		fmt.Fprintln(w)
	}
	if *proposals || all {
		rows, base, err := bench.ProposalSavings()
		if err != nil {
			return err
		}
		bench.WriteProposalSavings(w, rows, base)
	}
	return nil
}
