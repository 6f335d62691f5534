package core

import (
	"fedprophet/internal/fl"
)

func init() {
	fl.RegisterMethod("FedProphet", func(p fl.MethodParams) fl.Method { return New(p) })
}
