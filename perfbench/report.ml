(* Printing: one human-readable line per figure, then the result object
   as the last line of standard output. *)

open Util

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s = "\"" ^ String.escaped s ^ "\""

let print ~workload ~correct ~attempted ~failed ~(notes : metric list)
    (metrics : metric list) =
  List.iter
    (fun x -> Printf.printf "%-12s %-40s %16.6f %s\n" workload x.name x.value x.unit_)
    (metrics @ notes);
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (json_number x.value) (json_string x.unit_))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
