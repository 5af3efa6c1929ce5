// Command corpusgen generates the synthetic corpora standing in for the
// paper's datasets: HTML_18mil (long-tailed HTML news articles) and
// Text_400K (small extracted text files).
//
// Usage:
//
//	corpusgen -spec text -scale 0.001                 # histogram to stdout
//	corpusgen -spec html -scale 0.0001 -out ./corpus  # write real files
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/corpus"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	var (
		specName = flag.String("spec", "text", "corpus spec: html or text")
		scale    = flag.Float64("scale", 0.001, "scale vs the paper's corpus (1.0 = full)")
		seed     = flag.Int64("seed", 2011, "random seed")
		outDir   = flag.String("out", "", "write content-backed files under this directory")
	)
	flag.Parse()
	if err := cli.Positive("scale", *scale); err != nil {
		fatal(err)
	}

	var spec corpus.Spec
	switch *specName {
	case "html":
		spec = corpus.HTML18Mil(*scale)
	case "text":
		spec = corpus.Text400K(*scale)
	default:
		fmt.Fprintf(os.Stderr, "corpusgen: unknown spec %q (use html or text)\n", *specName)
		os.Exit(2)
	}

	if *outDir == "" {
		fs, err := corpus.Generate(spec, *seed)
		if err != nil {
			fatal(cli.Refused("scale", err))
		}
		binW, cap := int64(10*corpus.KB), 300*corpus.KB
		if *specName == "text" {
			binW, cap = corpus.KB, 160*corpus.KB
		}
		h, err := corpus.SizeHistogram(fs, binW, cap)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d files, %d bytes total (mean %.0f)\n",
			spec.Name, fs.Len(), fs.TotalSize(), float64(fs.TotalSize())/float64(fs.Len()))
		fmt.Print(h.Render(30, 50))
		return
	}

	fs, err := corpus.GenerateWithContentEagerCtx(ctx, spec, *seed, 0)
	if err != nil {
		fatal(cli.Refused("scale", err))
	}
	if err := fs.ExportCtx(ctx, *outDir); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d files (%d bytes) under %s\n", fs.Len(), fs.TotalSize(), *outDir)
}

func fatal(err error) {
	cli.Fatal("corpusgen", err)
}
