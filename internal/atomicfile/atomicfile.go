// Package atomicfile writes files through a temp file and a rename, so
// readers — in this process or others — see the old file or the whole
// new one, never a torn write, and stamps directories with a format
// version the same way. The characterization spill (internal/fleet)
// and the result store (internal/resultstore) both sit on it.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Write writes path through a temp file in path's directory and a
// rename.
func Write(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Stamp checks that the version stamp in the file at path reads want,
// first writing want there if the file is missing, and refuses any
// other version: files stamped by another format would corrupt results
// rather than merely miss. Any number of callers, in this process or
// others, may stamp one fresh directory at once: each writes its stamp
// with Write and re-reads the stamp that won. An empty stamp — left by
// a writer that truncated it in place and has not written yet, or died
// doing so — counts as missing.
func Stamp(path, want string) error {
	const attempts = 8
	for i := 0; i < attempts; i++ {
		data, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		if got := strings.TrimSpace(string(data)); got != "" {
			if got != want {
				return fmt.Errorf("%s is version %s, this build writes version %s; refusing mismatched versions (clear the dir or use another)",
					filepath.Dir(path), got, want)
			}
			return nil
		}
		err = Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, want+"\n")
			return err
		})
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("version stamp %s still empty after %d attempts", path, attempts)
}
