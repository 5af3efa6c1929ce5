package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/vfs"
)

// Corpus is the corpus a command's flags name, and the one way serve,
// worker and pipeline open it. How a corpus is opened moves scan time by
// integer factors, so no command spells the switch out for itself.
type Corpus struct {
	packs, dir, spec string
	scale            float64
	seed             int64
	faultSpec        string
}

// CorpusFlags registers -packs, -dir, -spec, -scale and -seed on fs;
// scale is the command's default for -scale.
func CorpusFlags(fs *flag.FlagSet, scale float64) *Corpus {
	c := &Corpus{}
	fs.StringVar(&c.packs, "packs", "", "packed corpus: comma-separated pack files and/or directories of *.pack shards (memory-mapped, zero-copy scans)")
	fs.StringVar(&c.dir, "dir", "", "real directory instead of a synthetic corpus")
	fs.StringVar(&c.spec, "spec", "text", "synthetic corpus: html or text (without -packs/-dir)")
	fs.Float64Var(&c.scale, "scale", scale, "synthetic corpus scale")
	fs.Int64Var(&c.seed, "seed", 2011, "random seed")
	return c
}

// FaultFlags registers -fault, for the commands that take it.
func (c *Corpus) FaultFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.faultSpec, "fault", "", "seeded fault-injection spec, comma-separated key=value (e.g. seed=7,readerr=0.05,kill=0.1); see internal/fault")
}

// Seed returns -seed, which commands also feed to whatever else they
// randomise; FaultSpec returns -fault as given, for the "armed" line.
func (c *Corpus) Seed() int64       { return c.seed }
func (c *Corpus) FaultSpec() string { return c.faultSpec }

// Use is how a command reads its corpus's bytes, and so how Open holds
// them: a Resident daemon (serve, worker) scans them many times and has
// them loaded up front; a ScanOnce run (pipeline) reads each file at most
// once, when a scan reaches it, so a run that only plans costs no more.
type Use int

const (
	Resident Use = iota
	ScanOnce
)

// usageError is a flag combination Open refuses; Fatal exits 2 on it.
type usageError string

func (e usageError) Error() string { return string(e) }

// Open opens the corpus for use: -packs as mapped shards, every member
// read held to its stored CRC-32C; -dir loaded into raw views when
// Resident, else stat'd and streamed; else -spec, generated eagerly when
// Resident, else on demand.
// An enabled -fault spec wraps the result — names, sizes, locality and
// stored sums are kept, so plan fingerprints match a clean run and a
// flipped pack member still fails its read — and its injector is
// returned; nil means no faults. A -scale that is not a positive finite
// number is refused whichever source is named, and one past
// corpus.MaxFiles files when -spec is.
// The closer must outlive every read; on failure nothing is left open.
func (c *Corpus) Open(ctx context.Context, use Use) (*vfs.FS, io.Closer, *fault.Injector, error) {
	if err := Positive("scale", c.scale); err != nil {
		return nil, nil, nil, err
	}
	cfg, err := fault.ParseSpec(c.faultSpec)
	if err != nil {
		return nil, nil, nil, err
	}
	var fs *vfs.FS
	var closer io.Closer = io.NopCloser(nil)
	switch {
	case c.packs != "":
		fs, closer, err = vfs.ImportPackMappedCtx(ctx, strings.Split(c.packs, ",")...)
	case c.dir != "" && use == Resident:
		fs, closer, err = vfs.ImportDirMappedCtx(ctx, c.dir)
	case c.dir != "":
		fs, err = vfs.ImportDirCtx(ctx, c.dir)
	case c.spec != "html" && c.spec != "text":
		err = usageError(fmt.Sprintf("unknown spec %q (html or text)", c.spec))
	default:
		spec := corpus.Text400K(c.scale)
		if c.spec == "html" {
			spec = corpus.HTML18Mil(c.scale)
		}
		if use == Resident {
			fs, err = corpus.GenerateWithContentEagerCtx(ctx, spec, c.seed, 0)
		} else {
			fs, err = corpus.GenerateWithContent(spec, c.seed)
		}
		err = Refused("scale", err)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if !cfg.Enabled() {
		return fs, closer, nil, nil
	}
	inj, err := fault.New(cfg)
	if err == nil {
		fs, err = inj.WrapFS(fs)
	}
	if err != nil {
		closer.Close()
		return nil, nil, nil, err
	}
	return fs, closer, inj, nil
}
