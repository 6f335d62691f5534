module fedprophet/bench

go 1.24

require fedprophet v0.0.0

replace fedprophet => ../
