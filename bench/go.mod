module holoclean/bench

go 1.24

require holoclean v0.0.0

replace holoclean => ../
