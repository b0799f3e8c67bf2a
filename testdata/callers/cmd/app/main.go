package main

import (
	"fixture/internal/core"
	"fixture/internal/lib"
	"fixture/internal/services/svc"
)

func main() { println(lib.Used(), svc.Handle(core.OpSent)) }
