module github.com/mcc-cmi/cmi/bench

go 1.23

require github.com/mcc-cmi/cmi v0.0.0

replace github.com/mcc-cmi/cmi => ../
