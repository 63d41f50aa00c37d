//! The experiment registry: every reproducible artefact of the paper,
//! addressable by id, with a shared study context so one passive run
//! serves many experiments.

use tlscope_analysis::{figures, sections, tables, Figure, Study, StudyConfig, Table};
use tlscope_chron::Date;
use tlscope_durable::StoreError;
use tlscope_notary::{NotaryAggregate, PipelineMetrics};
use tlscope_scanner::{PulseSnapshot, ScanMetrics, ScanMetricsSnapshot, ScanSnapshot};

/// A rendered experiment result.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A monthly-series figure.
    Figure(Figure),
    /// A table.
    Table(Table),
}

impl Artifact {
    /// Render for terminal output.
    pub fn to_ascii(&self, width: usize) -> String {
        match self {
            Artifact::Figure(f) => f.to_ascii(width),
            Artifact::Table(t) => t.to_ascii(),
        }
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        match self {
            Artifact::Figure(f) => f.to_csv(),
            Artifact::Table(t) => t.to_csv(),
        }
    }

    /// The artefact id.
    pub fn id(&self) -> &str {
        match self {
            Artifact::Figure(f) => &f.id,
            Artifact::Table(t) => &t.id,
        }
    }
}

impl From<Figure> for Artifact {
    fn from(figure: Figure) -> Self {
        Artifact::Figure(figure)
    }
}

impl From<Table> for Artifact {
    fn from(table: Table) -> Self {
        Artifact::Table(table)
    }
}

/// Why an experiment could not produce its artefact.
#[derive(Debug)]
pub enum RunError {
    /// The id is not in the registry.
    UnknownExperiment(String),
    /// A checkpoint store of either aperture failed or belongs to
    /// another study.
    Store(StoreError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownExperiment(id) => write!(f, "unknown experiment '{id}'"),
            RunError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::UnknownExperiment(_) => None,
            RunError::Store(e) => Some(e),
        }
    }
}

impl From<StoreError> for RunError {
    fn from(e: StoreError) -> Self {
        RunError::Store(e)
    }
}

/// What an artefact reads, with the render that turns it into the
/// artefact.
#[derive(Clone, Copy)]
enum Render {
    /// Nothing: a static table.
    Nothing(fn() -> Artifact),
    /// The passive aggregate.
    Passive(fn(&NotaryAggregate) -> Artifact),
    /// The active campaign's snapshots.
    Scans(fn(&[ScanSnapshot]) -> Artifact),
    /// Both apertures — the s5.x comparisons that set passive
    /// observations against the active campaign. Scans run first.
    Both(fn(&NotaryAggregate, &[ScanSnapshot]) -> Artifact),
    /// The yearly SSL-Pulse surveys.
    Pulse(fn(&[PulseSnapshot]) -> Artifact),
    /// The campaign's own ledger.
    Ledger(fn(&ScanMetricsSnapshot) -> Artifact),
}

/// Every artefact, in paper order: its id, what it reads and its
/// render.
const ARTIFACTS: [(&str, Render); 31] = {
    use Render::*;
    [
        ("table1", Nothing(|| tables::table1().into())),
        ("table2", Passive(|a| tables::table2(a).into())),
        ("table3", Nothing(|| tables::table3().into())),
        ("table4", Nothing(|| tables::table4().into())),
        ("table5", Nothing(|| tables::table5().into())),
        ("table6", Nothing(|| tables::table6().into())),
        ("fig1", Passive(|a| figures::fig1(a).into())),
        ("fig2", Passive(|a| figures::fig2(a).into())),
        ("fig3", Passive(|a| figures::fig3(a).into())),
        ("fig4", Passive(|a| figures::fig4(a).into())),
        ("fig5", Passive(|a| figures::fig5(a).into())),
        ("fig6", Passive(|a| figures::fig6(a).into())),
        ("fig7", Passive(|a| figures::fig7(a).into())),
        ("fig8", Passive(|a| figures::fig8(a).into())),
        ("fig9", Passive(|a| figures::fig9(a).into())),
        ("fig10", Passive(|a| figures::fig10(a).into())),
        ("s4.1", Passive(|a| sections::s4_1(a).into())),
        ("s5.1", Both(|a, s| sections::s5_1(a, s).into())),
        ("s5.4", Both(|a, s| sections::s5_4(a, s).into())),
        ("s5.5", Passive(|a| sections::s5_5(a).into())),
        ("s5.6", Both(|a, s| sections::s5_6(a, s).into())),
        ("s6.1", Passive(|a| sections::s6_1(a).into())),
        ("s6.2", Passive(|a| sections::s6_2(a).into())),
        ("s6.3", Passive(|a| sections::s6_3(a).into())),
        ("s6.4", Passive(|a| sections::s6_4(a).into())),
        ("s7.3", Passive(|a| sections::s7_3(a).into())),
        ("s9-ext", Passive(|a| sections::s9_extensions(a).into())),
        ("ssl-pulse", Pulse(|p| sections::ssl_pulse(p).into())),
        ("censys", Scans(|s| sections::censys_series(s).into())),
        (
            "scan-accounting",
            Ledger(|l| sections::scan_accounting(l).into()),
        ),
        ("impact", Passive(|a| impact_table(a).into())),
    ]
};

/// All experiment ids, in paper order.
pub const EXPERIMENT_IDS: &[&str] = &{
    let mut ids = [""; ARTIFACTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = ARTIFACTS[i].0;
        i += 1;
    }
    ids
};

/// The render of artefact `id`, if the registry has it.
fn render(id: &str) -> Option<Render> {
    ARTIFACTS
        .iter()
        .find(|(known, _)| *known == id)
        .map(|(_, r)| *r)
}

/// Whether an experiment needs the passive run / the active campaign
/// (the SSL-Pulse surveys count as active). An unknown id needs
/// neither.
pub fn needs(id: &str) -> (bool, bool) {
    match render(id) {
        None | Some(Render::Nothing(_)) => (false, false),
        Some(Render::Passive(_)) => (true, false),
        Some(Render::Both(_)) => (true, true),
        Some(Render::Scans(_) | Render::Pulse(_) | Render::Ledger(_)) => (false, true),
    }
}

/// A study context with lazily-computed passive/active results.
pub struct ReportContext {
    study: Study,
    passive: Option<NotaryAggregate>,
    scans: Option<Vec<ScanSnapshot>>,
    /// The campaign's own ledger, which `scan-accounting` renders: the
    /// context bag also counts the SSL-Pulse surveys.
    campaign_ledger: ScanMetricsSnapshot,
    metrics: PipelineMetrics,
    scan_metrics: ScanMetrics,
}

impl ReportContext {
    /// Create a context over a configuration.
    pub fn new(cfg: StudyConfig) -> Self {
        ReportContext {
            study: Study::new(cfg),
            passive: None,
            scans: None,
            campaign_ledger: ScanMetricsSnapshot::default(),
            metrics: PipelineMetrics::new(),
            scan_metrics: ScanMetrics::new(),
        }
    }

    /// Create a context with a pre-computed passive aggregate instead
    /// of re-simulating.
    pub fn with_passive(cfg: StudyConfig, passive: NotaryAggregate) -> Self {
        ReportContext {
            study: Study::new(cfg),
            passive: Some(passive),
            scans: None,
            campaign_ledger: ScanMetricsSnapshot::default(),
            metrics: PipelineMetrics::new(),
            scan_metrics: ScanMetrics::new(),
        }
    }

    /// The passive aggregate if it has been computed or injected.
    pub fn passive_ref(&self) -> Option<&NotaryAggregate> {
        self.passive.as_ref()
    }

    /// Pipeline accounting for the passive run (all zeros until
    /// [`passive`] triggers a simulation; an aggregate injected with
    /// [`ReportContext::with_passive`] never populates it).
    ///
    /// [`passive`]: ReportContext::try_passive
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// Scan accounting for everything this context probed: the active
    /// campaign (once [`scans`] triggers the sweeps) and the SSL-Pulse
    /// surveys.
    ///
    /// [`scans`]: ReportContext::try_scans
    pub fn scan_metrics(&self) -> &ScanMetrics {
        &self.scan_metrics
    }

    /// The passive aggregate, running it on first use and surfacing
    /// checkpoint-store errors instead of panicking.
    pub fn try_passive(&mut self) -> Result<&NotaryAggregate, StoreError> {
        if self.passive.is_none() {
            self.passive = Some(self.study.try_run_passive_metered(&self.metrics)?);
        }
        Ok(self.passive.as_ref().unwrap())
    }

    /// The active campaign results, running them on first use and
    /// surfacing scan-checkpoint-store errors instead of panicking.
    ///
    /// The campaign meters into a bag of its own, whose ledger
    /// `scan-accounting` renders, so that artefact does not depend on
    /// which surveys ran before it; the bag is then folded into the
    /// context's, failed run or not.
    pub fn try_scans(&mut self) -> Result<&[ScanSnapshot], StoreError> {
        if self.scans.is_none() {
            let campaign = ScanMetrics::new();
            let scans = self.study.try_run_active_metered(&campaign);
            self.scan_metrics.absorb(&campaign);
            self.scans = Some(scans?);
            self.campaign_ledger = campaign.snapshot();
        }
        Ok(self.scans.as_deref().unwrap())
    }

    /// One SSL Pulse-style survey per year over the SSL Pulse window
    /// (Oct 2013 on), one survey per unit of the runner the campaign
    /// uses: survey probes land in the same scan ledger the sweeps
    /// use, so `--scan-stats` sees them.
    fn pulses(&self) -> Vec<PulseSnapshot> {
        let cfg = self.study.config();
        let dates: Vec<Date> = (2013..=2018)
            .map(|year| match year {
                2013 => Date::ymd(2013, 10, 1),
                _ => Date::ymd(year, 4, 1),
            })
            .collect();
        tlscope_scanner::pulse_surveys(
            &tlscope_scanner::ProbeSet::campaign(),
            &tlscope_servers::ServerPopulation::new(),
            &dates,
            cfg.scan_hosts,
            cfg.seed,
            cfg.workers,
            &self.scan_metrics,
        )
    }

    /// Run one experiment by id, running first whatever it reads.
    /// Checkpoint-store errors from either aperture surface as
    /// [`RunError`] rather than aborting the process.
    pub fn run(&mut self, id: &str) -> Result<Artifact, RunError> {
        let render = render(id).ok_or_else(|| RunError::UnknownExperiment(id.to_string()))?;
        Ok(match render {
            Render::Nothing(f) => f(),
            Render::Passive(f) => f(self.try_passive()?),
            Render::Scans(f) => f(self.try_scans()?),
            Render::Both(f) => {
                self.try_scans()?;
                self.try_passive()?;
                f(
                    self.passive.as_ref().unwrap(),
                    self.scans.as_deref().unwrap(),
                )
            }
            Render::Pulse(f) => f(&self.pulses()),
            Render::Ledger(f) => {
                self.try_scans()?;
                f(&self.campaign_ledger)
            }
        })
    }
}

/// The §7.4 impact summary as a table: slope change and reaction lag
/// per (attack, series) pair.
pub fn impact_table(agg: &NotaryAggregate) -> Table {
    use tlscope_analysis::{attack, estimate_impact, reaction_lag_months};
    let mut t = Table::new(
        "impact",
        "Attack impact: pre/post disclosure slopes (pp/month) and change-point lag",
        vec![
            "Attack",
            "Series",
            "Slope before",
            "Slope after",
            "Lag (months)",
        ],
    );
    let fig2 = figures::fig2(agg);
    let fig7 = figures::fig7(agg);
    let fig8 = figures::fig8(agg);
    let fig1 = figures::fig1(agg);
    let cases: [(&str, &Figure, &str); 6] = [
        ("RC4", &fig2, "RC4"),
        ("RC4 passwords", &fig2, "RC4"),
        ("Snowden", &fig8, "ECDHE"),
        ("POODLE", &fig1, "SSLv3"),
        ("FREAK", &fig7, "Export"),
        ("Sweet32", &fig2, "CBC"),
    ];
    for (name, fig, series) in cases {
        let Some(ev) = attack(name) else { continue };
        let Some(est) = estimate_impact(fig, series, ev, 12) else {
            continue;
        };
        let lag = reaction_lag_months(fig, series, ev.date)
            .map(|l| l.to_string())
            .unwrap_or_else(|| "-".into());
        t.push_row(vec![
            name.to_string(),
            series.to_string(),
            format!("{:+.2}", est.slope_before),
            format!("{:+.2}", est.slope_after),
            lag,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlscope_chron::Month;

    fn tiny_ctx() -> ReportContext {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2015, 1);
        cfg.end = Month::ym(2015, 6);
        cfg.connections_per_month = 300;
        cfg.scan_hosts = 200;
        ReportContext::new(cfg)
    }

    #[test]
    fn static_tables_need_no_runs() {
        let mut ctx = tiny_ctx();
        for id in ["table1", "table3", "table4", "table5", "table6"] {
            let a = ctx.run(id).unwrap();
            assert_eq!(a.id(), id);
            assert!(!a.to_ascii(60).is_empty());
        }
        assert!(ctx.passive.is_none(), "static tables ran the study");
    }

    #[test]
    fn passive_experiments_share_one_run() {
        let mut ctx = tiny_ctx();
        let f2 = ctx.run("fig2").unwrap();
        let f8 = ctx.run("fig8").unwrap();
        assert_eq!(f2.id(), "fig2");
        assert_eq!(f8.id(), "fig8");
        // Both CSV renders have the same month axis length.
        assert_eq!(f2.to_csv().lines().count(), f8.to_csv().lines().count());
    }

    #[test]
    fn pulse_surveys_land_in_the_scan_ledger() {
        let mut ctx = tiny_ctx();
        let a = ctx.run("ssl-pulse").unwrap();
        assert_eq!(a.id(), "ssl-pulse");
        let s = ctx.scan_metrics().snapshot();
        // Six yearly surveys of `scan_hosts` sites each, all metered.
        assert_eq!(s.hosts_probed, 6 * 200);
        assert_eq!(s.sweeps_completed, 6);
        assert!(s.accounting_holds(), "{s:?}");
    }

    #[test]
    fn scan_accounting_counts_the_campaign_alone() {
        let alone = tiny_ctx().run("scan-accounting").unwrap().to_csv();
        let mut ctx = tiny_ctx();
        ctx.run("ssl-pulse").unwrap();
        let after_pulse = ctx.run("scan-accounting").unwrap().to_csv();
        assert_eq!(after_pulse, alone);
        // The surveys still reach the context's ledger.
        let campaign = ctx.campaign_ledger;
        let s = ctx.scan_metrics().snapshot();
        assert_eq!(s.hosts_probed, campaign.hosts_probed + 6 * 200);
        assert_eq!(s.sweeps_completed, campaign.sweeps_completed + 6);
    }

    #[test]
    fn needs_matches_what_run_actually_computes() {
        for id in EXPERIMENT_IDS {
            let mut ctx = tiny_ctx();
            ctx.run(id).unwrap();
            let (wants_passive, wants_active) = needs(id);
            assert_eq!(
                ctx.passive.is_some(),
                wants_passive,
                "passive aperture for {id}"
            );
            // ssl-pulse drives its surveys through the scan ledger
            // without materialising campaign snapshots, so the active
            // aperture is visible as probes in the ledger rather than
            // a populated `scans`.
            let ran_active = ctx.scans.is_some() || ctx.scan_metrics().snapshot().hosts_probed > 0;
            assert_eq!(ran_active, wants_active, "active aperture for {id}");
        }
    }

    #[test]
    fn unknown_id_is_an_error() {
        let mut ctx = tiny_ctx();
        match ctx.run("fig99") {
            Err(RunError::UnknownExperiment(id)) => assert_eq!(id, "fig99"),
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_errors_surface_through_run() {
        let mut cfg = StudyConfig::quick();
        cfg.start = Month::ym(2015, 1);
        cfg.end = Month::ym(2015, 1);
        cfg.connections_per_month = 50;
        cfg.scan_hosts = 50;
        // Files where the checkpoint directories should be.
        let base = std::env::temp_dir().join(format!(
            "tlscope-report-clash-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let scan_base = base.with_extension("scan");
        std::fs::write(&base, "not a directory").unwrap();
        std::fs::write(&scan_base, "not a directory").unwrap();
        cfg.checkpoint_dir = Some(base.clone());
        cfg.scan_checkpoint_dir = Some(scan_base.clone());
        let mut ctx = ReportContext::new(cfg);
        match ctx.run("fig1") {
            Err(RunError::Store(StoreError::Io(p, _))) if p.starts_with(&base) => {}
            other => panic!("expected a passive store error, got {other:?}"),
        }
        match ctx.run("censys") {
            Err(RunError::Store(StoreError::Io(p, _))) if p.starts_with(&scan_base) => {}
            other => panic!("expected a scan store error, got {other:?}"),
        }
        std::fs::remove_file(&base).unwrap();
        std::fs::remove_file(&scan_base).unwrap();
    }

    #[test]
    fn experiment_ids_all_resolve() {
        // Don't execute the heavy ones; just validate the needs() map
        // covers every id.
        for id in EXPERIMENT_IDS {
            let _ = needs(id);
        }
        assert_eq!(EXPERIMENT_IDS.len(), 31);
    }
}
