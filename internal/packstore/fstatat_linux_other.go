//go:build linux && !amd64 && !arm64

package packstore

// fstatatTrap is 0 where fstatat has another name or fills another stat
// layout than syscall.Stat_t: lstat goes through syscall.Lstat there.
const fstatatTrap = 0
