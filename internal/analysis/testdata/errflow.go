// errflow fixture: errors from device I/O (ReadPages/WritePages/Sync) and
// replay/recovery routines must be checked or explicitly discarded.
package fixture

type store struct{}

func (s *store) ReadPages(page int64, buf []byte) error  { return nil }
func (s *store) WritePages(page int64, buf []byte) error { return nil }
func (s *store) Sync() error                             { return nil }

func ReplayWAL() (int, error) { return 0, nil }

func RecoverStore() error { return nil }

// ReplayCount returns no error; the name prefix alone must not trigger.
func ReplayCount() int { return 0 }

func bareDrop(s *store) {
	s.Sync()            // want errflow
	s.ReadPages(0, nil) // want errflow
	ReplayCount()
}

func asyncDrop(s *store) {
	go s.WritePages(0, nil) // want errflow nogoroutine
	defer s.Sync()          // want errflow
}

func neverRead(s *store) {
	err := s.Sync() // want errflow
	_ = 1
}

func overwritten(s *store) error {
	err := s.ReadPages(0, nil) // want errflow
	err = s.WritePages(0, nil)
	return err
}

func tupleNeverRead() int {
	n, err := ReplayWAL() // want errflow
	return n
}

func recoverDrop() {
	RecoverStore() // want errflow
}

// --- negative cases ---

func checked(s *store) error {
	if err := s.Sync(); err != nil {
		return err
	}
	err := s.ReadPages(0, nil)
	if err != nil {
		return err
	}
	return s.WritePages(0, nil)
}

func explicitDiscard(s *store) {
	_ = s.Sync() // deliberate: fixture covers the sanctioned discard
	n, _ := ReplayWAL()
	_ = n
}

func tupleChecked() (int, error) {
	n, err := ReplayWAL()
	if err != nil {
		return 0, err
	}
	return n, nil
}

// The branch pattern from device.RealDisk: writes in sibling switch cases
// are not straight-line overwrites, and the merged read checks both.
func branchMerge(s *store, op int) {
	var err error
	switch op {
	case 0:
		err = s.ReadPages(0, nil)
	case 1:
		err = s.WritePages(0, nil)
	}
	if err != nil {
		panic(err)
	}
}

func propagatedAsArg(s *store) {
	check(s.Sync())
}

func check(err error) {}
