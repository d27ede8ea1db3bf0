module Problem = Ftes_model.Problem
module Design = Ftes_model.Design
module Scheduler = Ftes_sched.Scheduler
module Schedule = Ftes_sched.Schedule
module Bus = Ftes_sched.Bus

type campaign_docs = {
  manifest : Ftes_util.Json.t;
  checkpoints : (string * Ftes_util.Json.t) list;
  merged : Ftes_util.Json.t option;
}

type t = {
  problem : Problem.t;
  design : Design.t option;
  schedule : Schedule.t option;
  slack : Scheduler.slack_mode;
  bus : Bus.policy;
  sfp_tables : Ftes_sfp.Sfp.node_analysis array option;
  metrics : Ftes_obs.Metrics.snapshot option;
  archive : Ftes_pareto.Archive.t option;
  opt_cost : float option;
  certificate : Ftes_analyze.Preflight.t option;
  bnb_certificate : Ftes_analyze.Bnb_certificate.t option;
  responses : Ftes_util.Json.t list option;
  campaign : campaign_docs option;
}

let of_problem problem =
  { problem; design = None; schedule = None; slack = Scheduler.Shared;
    bus = Bus.Fcfs; sfp_tables = None; metrics = None; archive = None;
    opt_cost = None; certificate = None; bnb_certificate = None;
    responses = None; campaign = None }

let of_design problem design = { (of_problem problem) with design = Some design }

let of_schedule ?(slack = Scheduler.Shared) ?(bus = Bus.Fcfs) ?sfp_tables
    problem design schedule =
  { (of_problem problem) with
    design = Some design;
    schedule = Some schedule;
    slack;
    bus;
    sfp_tables }

let with_sfp_tables t tables = { t with sfp_tables = Some tables }

let with_metrics t snapshot = { t with metrics = Some snapshot }

let with_archive ?opt_cost t archive =
  { t with archive = Some archive; opt_cost }

let with_certificate t certificate = { t with certificate = Some certificate }

let with_bnb_certificate t certificate =
  { t with bnb_certificate = Some certificate }

let with_responses t responses = { t with responses = Some responses }

let with_campaign ?merged t ~manifest ~checkpoints =
  { t with campaign = Some { manifest; checkpoints; merged } }
