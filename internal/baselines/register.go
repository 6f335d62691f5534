package baselines

import (
	"fedprophet/internal/fl"
)

// The seven comparison methods self-register so entry points resolve them
// by name through the fl registry instead of switch-casing constructors.
func init() {
	fl.RegisterMethod("jFAT", func(p fl.MethodParams) fl.Method {
		return &JFAT{Build: p.BuildLarge}
	})
	fl.RegisterMethod("FedDF-AT", func(p fl.MethodParams) fl.Method {
		return &KDTraining{Group: p.KDGroup, Variant: FedDF}
	})
	fl.RegisterMethod("FedET-AT", func(p fl.MethodParams) fl.Method {
		return &KDTraining{Group: p.KDGroup, Variant: FedET}
	})
	fl.RegisterMethod("HeteroFL-AT", func(p fl.MethodParams) fl.Method {
		return &PartialTraining{Build: p.BuildLarge, Variant: HeteroFL}
	})
	fl.RegisterMethod("FedDrop-AT", func(p fl.MethodParams) fl.Method {
		return &PartialTraining{Build: p.BuildLarge, Variant: FedDrop}
	})
	fl.RegisterMethod("FedRolex-AT", func(p fl.MethodParams) fl.Method {
		return &PartialTraining{Build: p.BuildLarge, Variant: FedRolex}
	})
	fl.RegisterMethod("FedRBN", func(p fl.MethodParams) fl.Method {
		return &FedRBN{Build: p.BuildLarge}
	})
}
