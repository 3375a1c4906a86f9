module gretel/bench

go 1.22

require gretel v0.0.0

replace gretel => ../
