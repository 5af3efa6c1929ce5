package dist

import (
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
