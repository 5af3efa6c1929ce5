package packstore

import "syscall"

// fstatatTrap is the fstatat system call that fills syscall.Stat_t.
const fstatatTrap = syscall.SYS_FSTATAT
