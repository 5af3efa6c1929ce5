package dist

import (
	"context"
	"fmt"
	"os"
)

// Len reports how many completed tasks the journal file holds right now
// — what a reopen would resume. Only the journal tests count records, so
// it lives here rather than on the shipped type.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, err := os.ReadFile(j.path)
	if err != nil {
		panic(fmt.Sprintf("journal Len: %v", err))
	}
	hdr, err := parseJournalHeader(j.path, raw)
	if err != nil {
		panic(fmt.Sprintf("journal Len: %v", err))
	}
	tasks, _, err := parseJournalRecords(j.path, raw, len(hdr))
	if err != nil {
		panic(fmt.Sprintf("journal Len: %v", err))
	}
	return len(tasks)
}

// SetHealth installs the probe hook consulted by Probe (nil: always
// healthy). Only the quarantine and probe tests flip an in-process
// worker's health, so it lives here rather than on the shipped type.
func (l *Local) SetHealth(h func(ctx context.Context) error) { l.health = h }
