// Package loudflags_lib (fixture) exercises the loudflags analyzer outside
// package main: a library registers a CLI's flags on a FlagSet field and
// binds them to struct fields. A field is read when it is selected outside
// its registration.
package loudflags_lib

import "flag"

type Flags struct {
	fs      *flag.FlagSet
	level   int
	verbose bool
	name    *string
	ghost   *string
	legacy  bool
}

func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	f.fs.IntVar(&f.level, "level", 0, "read in Level")
	f.fs.BoolVar(&f.verbose, "verbose", false, "never read") // want `loudflags: flag "verbose" is registered but its value is never read`
	f.name = f.fs.String("name", "", "read in Name")
	f.ghost = f.fs.String("ghost", "", "never read")                   // want `loudflags: flag "ghost" is registered but its value is never read`
	f.fs.BoolVar(&f.legacy, "legacy", false, "kept for script compat") //lint:flagok old wrapper scripts still pass it
	return f
}

func (f *Flags) Level() int { return f.level }

func (f *Flags) Name() string { return *f.name }
