module cvm

go 1.23
