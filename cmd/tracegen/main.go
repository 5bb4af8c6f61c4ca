// Command tracegen generates and inspects synthetic spot-price traces — the
// stand-in for the Kaggle "AWS Spot Pricing Market" dataset the paper uses.
// -out writes the dataset's `timestamp,instance_type,price` layout, which
// market.ReadCSV loads back bit for bit.
//
// Usage:
//
//	tracegen -type r3.xlarge -days 11 -seed 1 -out r3.csv
//	tracegen -summary            # per-market statistics for the whole pool
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/market"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run parses args and executes the command, writing reports to stdout and
// usage errors to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		typeName = fs.String("type", "r3.xlarge", "instance type (Table III)")
		days     = fs.Int("days", 11, "trace length in days")
		seed     = fs.Uint64("seed", 1, "generator seed")
		out      = fs.String("out", "", "CSV output path (default stdout summary only)")
		summary  = fs.Bool("summary", false, "print statistics for all six markets")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	cat := market.DefaultCatalog()
	specs, err := market.DefaultSpecs(cat)
	if err != nil {
		return err
	}
	start := campaign.DefaultStart()
	end := start.Add(time.Duration(*days) * 24 * time.Hour)

	if *summary {
		fmt.Fprintf(stdout, "%-12s %8s %8s %8s %8s %9s\n", "market", "od $/h", "avg $/h", "max $/h", "records", "disc.%")
		for _, spec := range specs {
			tr, err := market.Generate(spec, start, end, *seed)
			if err != nil {
				return err
			}
			avg, err := tr.AvgOver(start, end)
			if err != nil {
				return err
			}
			maxP := tr.MaxOver(start, end)
			fmt.Fprintf(stdout, "%-12s %8.3f %8.3f %8.3f %8d %8.1f%%\n",
				spec.Type.Name, spec.Type.OnDemandPrice, avg, maxP,
				len(tr.Records), 100*(1-avg/spec.Type.OnDemandPrice))
		}
		return nil
	}

	var spec market.MarketSpec
	found := false
	for _, s := range specs {
		if s.Type.Name == *typeName {
			spec, found = s, true
		}
	}
	if !found {
		return fmt.Errorf("unknown instance type %q (see Table III)", *typeName)
	}
	tr, err := market.Generate(spec, start, end, *seed)
	if err != nil {
		return err
	}
	avg, err := tr.AvgOver(start, end)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d records over %d days, avg $%.4f/h (on-demand $%.3f, discount %.1f%%), max $%.4f\n",
		*typeName, len(tr.Records), *days, avg, spec.Type.OnDemandPrice,
		100*(1-avg/spec.Type.OnDemandPrice), tr.MaxOver(start, end))
	if *out == "" {
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteCSV(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}
