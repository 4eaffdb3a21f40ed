// Command healthlogcat inspects a HealthLog JSON-lines system logfile:
// it validates every line, prints a summary (components, error counts,
// time range), and optionally filters the vectors of one component.
// It is the HealthLog's on-demand service: the daemon keeps only the
// trigger windows in memory, and the logfile holds every vector.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"uniserver/internal/healthlog"
	"uniserver/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("healthlogcat: ")

	component := flag.String("component", "", "print only this component's vectors")
	errorsOnly := flag.Bool("errors-only", false, "print only vectors carrying error events")
	flag.Parse()

	if flag.NArg() != 1 {
		log.Fatal("usage: healthlogcat [-component NAME] [-errors-only] LOGFILE")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	vectors, err := healthlog.ReadLog(f)
	if err != nil {
		log.Fatal(err)
	}
	s := healthlog.Summarize(vectors)
	fmt.Printf("%s: %d vectors, %d components, %s .. %s\n",
		flag.Arg(0), s.Vectors, s.Components,
		s.First.Format("2006-01-02T15:04:05"), s.Last.Format("2006-01-02T15:04:05"))
	fmt.Printf("errors: %d correctable, %d uncorrectable, %d crashes\n",
		s.Correctable, s.Uncorrectable, s.Crashes)

	if *component == "" && !*errorsOnly {
		return
	}
	for _, v := range vectors {
		if *component != "" && v.Component != *component {
			continue
		}
		if *errorsOnly && len(v.Errors) == 0 {
			continue
		}
		printVector(v)
	}
}

func printVector(v telemetry.InfoVector) {
	fmt.Printf("%s %-20s %s", v.Time.Format("15:04:05"), v.Component, v.Point)
	for _, e := range v.Errors {
		fmt.Printf("  [%s x%d %s]", e.Kind, e.Count, e.Component)
	}
	fmt.Println()
}
