(** The benchmark harness's [--stats-json] file, through the real
    [bench/main.exe]: one run writes one object holding the keys of
    every experiment it selected, and a key written twice fails the
    run. *)

open Magis
open Helpers

(* resolved against the test binary, as [Test_serve.serve_exe] is *)
let bench_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat (Filename.concat ".." "bench") "main.exe")

(* [bench_exe args], its output discarded: its exit code *)
let bench args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
  let pid =
    Unix.create_process bench_exe
      (Array.of_list (bench_exe :: args))
      devnull devnull devnull
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> n
  | _ -> -1

let test_stats_json_holds_every_experiment () =
  let path = temp_path "bench-stats" in
  Alcotest.(check int) "two experiments, one file: exit 0" 0
    (bench [ "frontier"; "table2"; "--stats-json"; path ]);
  let obj =
    In_channel.with_open_bin path In_channel.input_all |> Json.of_string
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (Json.member k obj <> None))
    [ "points"; "roundtrip_identical"; "wall_frontier_s"; "wall_table2_s" ];
  let again = temp_path "bench-stats-dup" in
  Alcotest.(check bool) "an experiment twice: a duplicate key fails the run"
    true
    (bench [ "frontier"; "frontier"; "--stats-json"; again ] <> 0)

let suite =
  [
    tc "--stats-json holds every selected experiment's keys"
      test_stats_json_holds_every_experiment;
  ]
