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
	verifyReads      bool
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

// FaultFlags registers -fault and -verify-reads, for the commands that
// take them.
func (c *Corpus) FaultFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.faultSpec, "fault", "", "seeded fault-injection spec, comma-separated key=value (e.g. seed=7,readerr=0.05,kill=0.1); see internal/fault")
	fs.BoolVar(&c.verifyReads, "verify-reads", false, "verify pack member checksums on every read (requires -packs); on-disk corruption fails loudly instead of skewing results")
}

// Seed returns -seed, which commands also feed to whatever else they
// randomise; FaultSpec returns -fault as given, for the "armed" line.
func (c *Corpus) Seed() int64       { return c.seed }
func (c *Corpus) FaultSpec() string { return c.faultSpec }

// Synthetic builds a -spec corpus. It is Open's parameter because it is
// the one thing the commands rightly differ in: a resident daemon reads
// the bytes many times (Eager), a one-shot run must not hold them all.
type Synthetic func(ctx context.Context, spec corpus.Spec, seed int64) (*vfs.FS, error)

// Eager materialises every file's bytes up front, on all CPUs.
func Eager(ctx context.Context, spec corpus.Spec, seed int64) (*vfs.FS, error) {
	return corpus.GenerateWithContentEagerCtx(ctx, spec, seed, 0)
}

// usageError is a flag combination Open refuses; Fatal exits 2 on it.
type usageError string

func (e usageError) Error() string { return string(e) }

// Open opens the corpus: -packs as mapped shards (with -verify-reads,
// checksummed section readers, which rules out the zero-copy windows),
// -dir as raw views (slabs for small files, mappings for large ones),
// else -spec through synthetic. An enabled -fault spec wraps the result —
// names, sizes and locality are kept, so plan fingerprints match a clean
// run — and its injector is returned; nil means no faults. The closer
// must outlive every read; on failure nothing is left open.
func (c *Corpus) Open(ctx context.Context, synthetic Synthetic) (*vfs.FS, io.Closer, *fault.Injector, error) {
	if c.verifyReads && c.packs == "" {
		return nil, nil, nil, usageError("-verify-reads needs a packed corpus (-packs)")
	}
	cfg, err := fault.ParseSpec(c.faultSpec)
	if err != nil {
		return nil, nil, nil, err
	}
	var fs *vfs.FS
	var closer io.Closer = io.NopCloser(nil)
	switch {
	case c.packs != "" && c.verifyReads:
		fs, closer, err = vfs.ImportPackVerifiedCtx(ctx, strings.Split(c.packs, ",")...)
	case c.packs != "":
		fs, closer, err = vfs.ImportPackMappedCtx(ctx, strings.Split(c.packs, ",")...)
	case c.dir != "":
		fs, closer, err = vfs.ImportDirMappedCtx(ctx, c.dir)
	case c.spec == "html":
		fs, err = synthetic(ctx, corpus.HTML18Mil(c.scale), c.seed)
	case c.spec == "text":
		fs, err = synthetic(ctx, corpus.Text400K(c.scale), c.seed)
	default:
		err = usageError(fmt.Sprintf("unknown spec %q (html or text)", c.spec))
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
